#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cstdio>

namespace blap::faults {

namespace {

/// SplitMix64 output function: mixes (plan seed, link id) into an Rng seed
/// so per-link streams are unrelated even for adjacent link ids.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(FaultVerdict verdict) {
  switch (verdict) {
    case FaultVerdict::kDeliver: return "deliver";
    case FaultVerdict::kDropLoss: return "loss";
    case FaultVerdict::kDropBurst: return "burst";
    case FaultVerdict::kDropJam: return "jam";
    case FaultVerdict::kCorrupt: return "corrupt";
  }
  return "?";
}

std::string FaultPlan::describe() const {
  if (!enabled()) return "faults off";
  char buf[128];
  std::snprintf(buf, sizeof buf, "loss=%.3f%s corrupt=%.3f jam_windows=%zu", loss,
                burst_enabled ? " +burst" : "", corruption, jam_windows.size());
  return buf;
}

ChannelModel::ChannelModel(const FaultPlan& plan, std::uint64_t link_id)
    : plan_(plan), rng_(mix(plan.seed, link_id)) {}

FaultVerdict ChannelModel::judge(SimTime now) {
  // Jam windows first and draw-free: a scheduled jammer is not random, and
  // skipping the Rng keeps the post-window fault sequence identical whether
  // or not a window was configured before it.
  for (const JamWindow& window : plan_.jam_windows)
    if (now >= window.begin && now < window.end) return FaultVerdict::kDropJam;

  if (plan_.burst_enabled) {
    if (in_burst_) {
      if (rng_.chance(plan_.p_exit_burst)) in_burst_ = false;
    } else if (rng_.chance(plan_.p_enter_burst)) {
      in_burst_ = true;
    }
    if (in_burst_ && rng_.chance(plan_.burst_loss)) return FaultVerdict::kDropBurst;
  }

  if (plan_.loss > 0.0 && rng_.chance(plan_.loss)) return FaultVerdict::kDropLoss;
  if (plan_.corruption > 0.0 && rng_.chance(plan_.corruption))
    return FaultVerdict::kCorrupt;
  return FaultVerdict::kDeliver;
}

void ChannelModel::corrupt(Bytes& frame) {
  if (frame.empty()) return;
  const std::uint64_t flips =
      1 + rng_.uniform(std::min<std::uint64_t>(3, frame.size()));
  for (std::uint64_t i = 0; i < flips; ++i) {
    const auto pos = static_cast<std::size_t>(rng_.uniform(frame.size()));
    // XOR with a nonzero byte guarantees the frame actually changes.
    frame[pos] ^= static_cast<std::uint8_t>(1 + rng_.uniform(255));
  }
}

void FaultPlan::save_state(state::StateWriter& w) const {
  w.u64(seed);
  w.f64(loss);
  w.boolean(burst_enabled);
  w.f64(p_enter_burst);
  w.f64(p_exit_burst);
  w.f64(burst_loss);
  w.f64(corruption);
  w.u64(jam_windows.size());
  for (const JamWindow& window : jam_windows) {
    w.u64(window.begin);
    w.u64(window.end);
  }
}

FaultPlan FaultPlan::load_state(state::StateReader& r) {
  FaultPlan plan;
  plan.seed = r.u64();
  plan.loss = r.f64();
  plan.burst_enabled = r.boolean();
  plan.p_enter_burst = r.f64();
  plan.p_exit_burst = r.f64();
  plan.burst_loss = r.f64();
  plan.corruption = r.f64();
  r.read_vector(plan.jam_windows, [&r](JamWindow& window) {
    window.begin = r.u64();
    window.end = r.u64();
  });
  return plan;
}

void ChannelModel::save_state(state::StateWriter& w) const {
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  w.boolean(in_burst_);
}

void ChannelModel::load_state(state::StateReader& r) {
  std::array<std::uint64_t, 4> words{};
  for (std::uint64_t& word : words) word = r.u64();
  rng_.set_state(words);
  in_burst_ = r.boolean();
}

}  // namespace blap::faults
