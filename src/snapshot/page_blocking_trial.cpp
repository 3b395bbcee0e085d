#include "snapshot/page_blocking_trial.hpp"

#include <memory>

#include "core/page_blocking.hpp"

namespace blap::snapshot {

std::string_view PageBlockingTrial::kind() const {
  static constexpr std::string_view kKinds[2][2] = {
      {"page_blocking_baseline", "page_blocking_baseline_metrics"},
      {"page_blocking_attack", "page_blocking_attack_metrics"}};
  return kKinds[attack][metrics];
}

std::optional<PageBlockingTrial> PageBlockingTrial::from_kind(std::string_view kind) {
  for (const bool attack : {false, true}) {
    for (const bool metrics : {false, true}) {
      const PageBlockingTrial trial{attack, metrics, std::nullopt};
      if (trial.kind() == kind) return trial;
    }
  }
  return std::nullopt;
}

std::optional<faults::FaultPlan> PageBlockingTrial::fault_plan(std::uint64_t seed) const {
  if (!loss.has_value()) return std::nullopt;
  faults::FaultPlan plan;
  if (*loss > 0.0) {
    plan.seed = seed;
    plan.loss = *loss;
  }
  return plan;
}

campaign::TrialResult PageBlockingTrial::run(Scenario& s,
                                             const std::optional<faults::FaultPlan>& plan,
                                             std::string* trace_json) const {
  obs::Observer* obs = nullptr;
  if (metrics || trace_json != nullptr)
    obs = &s.sim->enable_observability({.tracing = trace_json != nullptr, .metrics = metrics});
  if (plan.has_value()) s.sim->set_fault_plan(*plan);

  campaign::TrialResult r;
  r.success =
      attack ? core::PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {})
                   .mitm_established
             : core::PageBlockingAttack::baseline_trial(*s.sim, *s.attacker, *s.accessory,
                                                        *s.target);
  r.virtual_end = s.sim->now();
  if (obs != nullptr) {
    if (metrics) r.metrics = std::make_shared<const obs::MetricsSnapshot>(obs->snapshot());
    if (trace_json != nullptr) *trace_json = obs->recorder().to_chrome_json();
  }
  return r;
}

}  // namespace blap::snapshot
