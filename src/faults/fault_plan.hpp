// fault_plan.hpp — deterministic fault injection for the radio medium.
//
// The paper's Table II numbers exist because real 2.4 GHz links are lossy:
// page trains collide with Wi-Fi, LMP frames die in microwave-oven bursts,
// and every stack layer carries timers to survive it. A FaultPlan describes
// a degraded-RF scenario as data — iid frame loss, Gilbert-Elliott burst
// interference, residual byte corruption, and scheduled jammer windows — so
// a campaign can sweep attack success against channel quality exactly the
// way it sweeps seeds.
//
// Determinism contract: every random decision is drawn from an Rng seeded
// by (plan.seed, link id), entirely separate from the medium's own stream,
// and all jammer timing is virtual time. A default-constructed FaultPlan is
// *disabled*: no channel models are built, no extra events are scheduled,
// no Rng is ever consulted — simulations without a plan stay byte-identical
// to a build without this subsystem.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "common/state_io.hpp"

namespace blap::faults {

/// A virtual-time interval [begin, end) during which a jammer owns the
/// channel: every frame transmitted inside it is lost.
struct JamWindow {
  SimTime begin = 0;
  SimTime end = 0;
};

/// Declarative description of one degraded-RF scenario. All probabilities
/// are per-frame. The plan is plain data so campaign trials can build it
/// from swept parameters and a per-trial seed.
struct FaultPlan {
  /// Folded with the link id into each per-link ChannelModel stream, so
  /// adding a link never perturbs another link's fault sequence.
  std::uint64_t seed = 0;

  /// Independent (iid) frame-loss probability — the memoryless floor that
  /// models ambient 2.4 GHz congestion.
  double loss = 0.0;

  /// Gilbert-Elliott two-state burst model. Each frame first steps the
  /// good/bad Markov chain (good→bad with p_enter_burst, bad→good with
  /// p_exit_burst), then while in the bad state is lost with burst_loss.
  /// Mean burst length is 1/p_exit_burst frames; stationary bad-state
  /// probability is p_enter / (p_enter + p_exit).
  bool burst_enabled = false;
  double p_enter_burst = 0.05;
  double p_exit_burst = 0.30;
  double burst_loss = 0.9;

  /// Residual (CRC-escaping) corruption: the frame is delivered, but with
  /// 1–3 bytes flipped. Exercises every receive-path parser the fuzz tests
  /// cover, now on live protocol state.
  double corruption = 0.0;

  /// Scheduled jammer ownership of the channel. Checked before any random
  /// draw, so a plan that is *only* jam windows consumes no randomness
  /// outside them.
  std::vector<JamWindow> jam_windows;

  /// True when any fault mechanism is configured. A disabled plan promises
  /// zero behavioural difference: no ChannelModel, no ARQ reports, no
  /// supervision timers, no Rng draws.
  [[nodiscard]] bool enabled() const {
    return loss > 0.0 || burst_enabled || corruption > 0.0 || !jam_windows.empty();
  }

  /// Short human-readable summary for bench banners and campaign labels.
  [[nodiscard]] std::string describe() const;

  /// Snapshot/bundle serialization: a plan is plain data, round-tripped
  /// field by field.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);
};

/// Why (or whether) a frame survived the channel.
enum class FaultVerdict : std::uint8_t {
  kDeliver,    // frame arrives intact
  kDropLoss,   // iid loss
  kDropBurst,  // lost inside a Gilbert-Elliott bad state
  kDropJam,    // transmitted inside a jam window
  kCorrupt,    // delivered with flipped bytes (residual errors)
};

[[nodiscard]] const char* to_string(FaultVerdict verdict);

/// Per-link channel state machine. One instance per radio link, seeded from
/// (plan.seed, link id); judges every frame in transmit order, so the fault
/// sequence on a link is a pure function of the plan and that link's
/// traffic — independent of any other link.
class ChannelModel {
 public:
  ChannelModel(const FaultPlan& plan, std::uint64_t link_id);

  /// Decide the fate of one frame transmitted at virtual time `now`.
  [[nodiscard]] FaultVerdict judge(SimTime now);

  /// Flip 1–3 bytes of `frame` in place (no-op on an empty frame). Only
  /// called after judge() returned kCorrupt.
  void corrupt(Bytes& frame);

  /// Currently inside a Gilbert-Elliott bad state?
  [[nodiscard]] bool in_burst() const { return in_burst_; }

  /// Snapshot support: the mutable per-link channel state (Rng stream +
  /// burst flag). The plan itself is serialized by the owning medium; the
  /// load runs on a model freshly built from that plan.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);

 private:
  FaultPlan plan_;  // by value: the model must not dangle if the medium's plan is swapped
  Rng rng_;
  bool in_burst_ = false;
};

}  // namespace blap::faults
