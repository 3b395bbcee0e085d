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

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void FaultPlan::persist(Io& io, Self& self) {
  io.field(self.seed);
  io.field(self.loss);
  io.field(self.burst_enabled);
  io.field(self.p_enter_burst);
  io.field(self.p_exit_burst);
  io.field(self.burst_loss);
  io.field(self.corruption);
  io.seq(self.jam_windows, [&io](auto& window) {
    io.field(window.begin);
    io.field(window.end);
  });
}
template void FaultPlan::persist(state::StateWriter&, const FaultPlan&);
template void FaultPlan::persist(state::StateReader&, FaultPlan&);

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void ChannelModel::persist(Io& io, Self& self) {
  io.field(self.rng_);
  io.field(self.in_burst_);
}
template void ChannelModel::persist(state::StateWriter&, const ChannelModel&);
template void ChannelModel::persist(state::StateReader&, ChannelModel&);

}  // namespace blap::faults
