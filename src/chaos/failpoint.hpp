// failpoint.hpp — the deterministic failpoint registry.
//
// BLAP's attacks live in the stack's rarely-exercised corners: pairings
// interrupted mid-handshake, page races lost after the baseband came up,
// links torn down while an LMP exchange is in flight (paper §V). A
// failpoint is a *named* internal failure site — "the delivery report for
// this baseband frame was lost", "this supervision timer fired early" —
// threaded through the stack as
//
//   if (BLAP_FAILPOINT("controller.arq.report_lost")) return;
//
// Contract, mirrored from the `obs->` instrumentation sites:
//
//   * OFF by default. With no ChaosPlan armed on the calling thread the
//     macro is a single never-taken branch on a thread-local null pointer;
//     stack behavior (and every golden output) is byte-identical to a
//     build without the site. blap-lint rule D7 enforces that every site
//     sits in an `if` condition so this holds structurally.
//   * DETERMINISTIC when on. A plan either *records* (count every hit,
//     never fire — the exploration baseline), *injects* (fire at exact
//     (site, ordinal) pairs — the exploration trials), or fires
//     *probabilistically* from its own seeded SplitMix64 stream
//     (fuzz-style soak runs). No wall clock, no global RNG: two runs of
//     the same plan over the same simulation hit and fire identically.
//   * THREAD-LOCAL arming. Campaign workers run concurrent trials; each
//     arms its own plan via ScopedChaosPlan, so trials never observe each
//     other.
//
// Site names are dotted lowercase `layer.component.event` (see DESIGN §14
// for the naming scheme and the full site catalogue).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace blap::chaos {

/// One armed fault: fire the `ordinal`-th hit (0-based) of `site`.
struct FaultSite {
  std::string site;
  std::uint64_t ordinal = 0;

  friend bool operator==(const FaultSite&, const FaultSite&) = default;
  friend auto operator<=>(const FaultSite&, const FaultSite&) = default;
};

/// Compact text form used by replay bundles and reports: "site@ordinal",
/// lists joined with '+': "controller.arq.report_lost@3+radio.frame.drop@0".
[[nodiscard]] std::string encode_fault_sites(const std::vector<FaultSite>& sites);
/// Inverse of encode_fault_sites(); nullopt-like empty+false via the bool.
[[nodiscard]] bool decode_fault_sites(const std::string& text, std::vector<FaultSite>& out);

class ChaosPlan {
 public:
  /// Baseline mode: count every hit, never fire.
  [[nodiscard]] static ChaosPlan recorder();
  /// Exploration mode: fire exactly at each armed (site, ordinal).
  [[nodiscard]] static ChaosPlan inject(std::vector<FaultSite> faults);
  /// Soak mode: every hit fires with `probability`, drawn from a SplitMix64
  /// stream rooted at `seed` — per-plan seeding keeps soak runs replayable.
  [[nodiscard]] static ChaosPlan random(std::uint64_t seed, double probability);

  /// Called by BLAP_FAILPOINT (after the null check). Counts the hit and
  /// decides whether the site fires this time.
  bool on_hit(const char* site);

  /// Hit counts per site, in site-name order (deterministic).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& hits() const { return hits_; }
  /// Total hits across all sites.
  [[nodiscard]] std::uint64_t total_hits() const;
  /// How many times an armed fault actually fired.
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] const std::vector<FaultSite>& faults() const { return faults_; }

  /// Forget hit/fire state but keep the armed faults — reuse across trials.
  void reset_counts();

 private:
  ChaosPlan() = default;

  bool record_only_ = false;
  double probability_ = 0.0;
  std::uint64_t rng_state_ = 0;
  std::vector<FaultSite> faults_;  // sorted; empty unless inject mode
  std::map<std::string, std::uint64_t> hits_;
  std::uint64_t fired_ = 0;
};

/// The plan armed on the calling thread; null means chaos is off. Not a
/// singleton on purpose: arming is scoped (ScopedChaosPlan) and per-thread,
/// exactly like a campaign trial's Simulation. `constinit` promises every
/// includer there is no dynamic initializer, so a read is a plain TLS load
/// with no call through the thread_local init wrapper.
extern constinit thread_local ChaosPlan* tl_plan;

/// Out-of-line slow path; only reached when a plan is armed.
[[nodiscard]] bool failpoint_hit(const char* site);

/// RAII arming of a plan on the current thread.
class ScopedChaosPlan {
 public:
  explicit ScopedChaosPlan(ChaosPlan& plan) : prev_(tl_plan) { tl_plan = &plan; }
  ~ScopedChaosPlan() { tl_plan = prev_; }
  ScopedChaosPlan(const ScopedChaosPlan&) = delete;
  ScopedChaosPlan& operator=(const ScopedChaosPlan&) = delete;

 private:
  ChaosPlan* prev_;
};

}  // namespace blap::chaos

/// A named failure site. True exactly when the armed plan fires the site —
/// the caller then takes the failure branch (drop the frame, lose the
/// report, fire the timer early...). One disabled branch when chaos is off.
#define BLAP_FAILPOINT(site) \
  (::blap::chaos::tl_plan != nullptr && ::blap::chaos::failpoint_hit(site))
