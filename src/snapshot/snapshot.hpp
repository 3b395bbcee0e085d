// snapshot.hpp — whole-simulation capture, restore and fork.
//
// A Snapshot is the complete serialized state of a Simulation: scheduler
// clock and sequence counter, every Rng stream, the radio medium (fault
// plan, attachments, live links), and each device's transport, controller
// and host — explicit, versioned, little-endian bytes with no pointers and
// no hash-order (see common/state_io.hpp).
//
// Two capture disciplines exist because the simulator has two kinds of
// state:
//
//   * capture() — the STRICT/fork path. Requires the scheduler to be idle
//     and every device quiescent (no in-flight pairing, no queued baseband
//     frames, no pending host operations), which is exactly the condition
//     under which {now, next_seq} plus the component fields *are* the whole
//     future-determining state. A strict snapshot can be restored with
//     restore(): the scheduler is rewound (every pre-capture EventHandle
//     goes stale), components drop callback-holding residue, and the
//     simulation continues as if freshly built. Combined with
//     Simulation::reseed(), this is the Monte-Carlo fork: build the
//     topology once, snapshot the warm point, then per trial
//     restore + reseed(trial_seed) — byte-identical to a fresh build.
//
//   * capture_relaxed() — the TEST path. Serializes the same fields at any
//     event boundary, mid-pairing included, without the quiescence check.
//     Restorable only with restore_in_place() onto the very simulation it
//     was captured from (scheduler queue and closures intact); the
//     round-trip property tests use it to prove that what the serializer
//     writes is what the deserializer reads, at arbitrary stop points.
//
// Restore validates before it mutates: magic, version, mode/strictness,
// and the topology fingerprint (device count, names, transport kinds) are
// all checked first, so a mismatched snapshot leaves the simulation
// untouched. A structurally corrupt byte string is rejected earlier, in
// from_bytes()/load_file(), which checks the section framing but not what
// the sections hold. A failure once the commit has begun (the
// snapshot.load.truncated failpoint, or malformed section contents) leaves
// a half-restored simulation that callers abandon or restore over.
//
// Restore refills the storage the simulation already holds (see
// common/state_io.hpp), so restoring the same snapshot onto the same
// simulation again allocates only the endpoint roster and the medium's
// attachment list.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/scheduler.hpp"
#include "common/state_io.hpp"
#include "core/device.hpp"

namespace blap::snapshot {

class Snapshot {
 public:
  /// First bytes of every snapshot file.
  static constexpr std::array<std::uint8_t, 8> kMagic = {'B', 'L', 'A', 'P',
                                                         'S', 'N', 'A', 'P'};
  /// Bumped on any layout change; readers reject other versions.
  static constexpr std::uint32_t kVersion = 1;

  /// Strict capture at a quiescent point. Returns nullopt — and the reason
  /// in `*why` — when the scheduler still has queued events, a device is
  /// mid-operation, or a link references an endpoint outside the
  /// simulation's roster.
  [[nodiscard]] static std::optional<Snapshot> capture(core::Simulation& sim,
                                                       std::string* why = nullptr);

  /// Relaxed capture at any event boundary (no quiescence check). The
  /// result can only be applied with restore_in_place().
  [[nodiscard]] static Snapshot capture_relaxed(core::Simulation& sim);

  /// Fork restore (strict snapshots only): rewind the scheduler, reload
  /// every component in RestoreMode::kRewind, and reset the observer if
  /// one is attached. `sim` must have the same topology the snapshot was
  /// captured from. On a header or topology refusal the simulation is
  /// untouched; a failure mid-commit leaves it half-restored. Either way
  /// `*why` explains; returns true on success.
  bool restore(core::Simulation& sim, std::string* why = nullptr) const;

  /// Round-trip restore onto the simulation the snapshot was captured
  /// from, at the capture instant (the virtual clock must match). The
  /// scheduler queue is left intact; components reload serialized fields
  /// in RestoreMode::kInPlace.
  bool restore_in_place(core::Simulation& sim, std::string* why = nullptr) const;

  /// True for capture(); false for capture_relaxed().
  [[nodiscard]] bool strict() const { return strict_; }
  /// Virtual time at capture.
  [[nodiscard]] SimTime captured_at() const { return now_; }
  /// The serialized form. Byte-identical for identical logical state.
  [[nodiscard]] const Bytes& bytes() const { return data_; }

  /// Parse and structurally validate serialized bytes: magic, version, and
  /// the full section chain (every tag present, every length in bounds, no
  /// trailing garbage). Semantic topology checks happen at restore time.
  [[nodiscard]] static std::optional<Snapshot> from_bytes(Bytes data,
                                                          std::string* why = nullptr);

  /// File round-trip (binary). load_file validates like from_bytes.
  [[nodiscard]] bool save_file(const std::string& path) const;
  [[nodiscard]] static std::optional<Snapshot> load_file(const std::string& path,
                                                         std::string* why = nullptr);

 private:
  Snapshot() = default;
  [[nodiscard]] static Snapshot serialize(core::Simulation& sim, bool strict, bool* ok);
  bool apply(core::Simulation& sim, state::RestoreMode mode, std::string* why) const;

  Bytes data_;
  bool strict_ = false;
  SimTime now_ = 0;
};

}  // namespace blap::snapshot
