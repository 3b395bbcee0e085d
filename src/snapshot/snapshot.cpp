#include "snapshot/snapshot.hpp"

#include <cstdio>

#include "chaos/failpoint.hpp"

namespace blap::snapshot {
namespace {

constexpr std::uint32_t kSimTag = state::tag('S', 'I', 'M', ' ');
constexpr std::uint32_t kMediumTag = state::tag('M', 'E', 'D', 'M');
constexpr std::uint32_t kDeviceTag = state::tag('D', 'E', 'V', 'C');

void set_why(std::string* why, std::string text) {
  if (why != nullptr) *why = std::move(text);
}

/// Reads the fixed header; returns false (reader failed or value mismatch)
/// on anything but a version-1 BLAPSNAP. On success `strict` is filled in.
bool read_header(state::StateReader& r, bool& strict) {
  const auto magic = r.fixed<Snapshot::kMagic.size()>();
  if (!r.ok() || magic != Snapshot::kMagic) {
    r.fail("not a BLAPSNAP snapshot (bad magic)");
    return false;
  }
  const std::uint32_t version = r.u32();
  if (!r.ok() || version != Snapshot::kVersion) {
    r.fail("unsupported snapshot version");
    return false;
  }
  strict = r.boolean();
  // Bit-rot in the stored header: the snapshot must be rejected up front
  // with a clean typed error, never half-applied.
  if (BLAP_FAILPOINT("snapshot.load.header_reject")) {
    r.fail("snapshot header rejected (chaos failpoint)");
    return false;
  }
  return r.ok();
}

}  // namespace

Snapshot Snapshot::serialize(core::Simulation& sim, bool strict, bool* ok) {
  state::StateWriter w;
  *ok = true;
  // Byte-wise on purpose: GCC 12's -Wstringop-overflow misfires on a range
  // insert of a static constexpr array into a fresh vector.
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u32(kVersion);
  w.boolean(strict);

  const auto sim_token = w.begin_section(kSimTag);
  w.u64(sim.scheduler().now());
  w.u64(sim.scheduler().next_seq());
  for (const std::uint64_t limb : sim.rng().state()) w.u64(limb);
  w.u64(sim.devices().size());
  for (const auto& device : sim.devices()) {
    w.str(device->spec().name);
    w.u8(static_cast<std::uint8_t>(device->spec().transport));
  }
  w.end_section(sim_token);

  const auto roster = sim.endpoint_roster();
  const auto medium_token = w.begin_section(kMediumTag);
  if (!sim.medium().save_state(w, roster)) *ok = false;
  w.end_section(medium_token);

  for (const auto& device : sim.devices()) {
    const auto device_token = w.begin_section(kDeviceTag);
    device->save_state(w);
    w.end_section(device_token);
  }

  Snapshot snap;
  snap.data_ = w.take();
  snap.strict_ = strict;
  snap.now_ = sim.scheduler().now();
  return snap;
}

std::optional<Snapshot> Snapshot::capture(core::Simulation& sim, std::string* why) {
  if (!sim.scheduler().idle()) {
    set_why(why, "scheduler not idle: " + std::to_string(sim.scheduler().pending_events()) +
                     " event(s) still queued");
    return std::nullopt;
  }
  for (const auto& device : sim.devices()) {
    if (!device->quiescent()) {
      set_why(why, "device '" + device->spec().name + "' not quiescent");
      return std::nullopt;
    }
  }
  bool ok = false;
  Snapshot snap = serialize(sim, /*strict=*/true, &ok);
  if (!ok) {
    set_why(why, "a radio link references an endpoint outside the simulation roster");
    return std::nullopt;
  }
  return snap;
}

Snapshot Snapshot::capture_relaxed(core::Simulation& sim) {
  bool ok = false;
  return serialize(sim, /*strict=*/false, &ok);
}

bool Snapshot::apply(core::Simulation& sim, state::RestoreMode mode, std::string* why) const {
  state::StateReader r(data_);
  bool strict = false;
  if (!read_header(r, strict)) {
    set_why(why, r.error());
    return false;
  }
  if (mode == state::RestoreMode::kRewind && !strict) {
    set_why(why, "fork restore requires a strict (quiescent-point) snapshot");
    return false;
  }

  // --- validate everything before mutating anything -------------------------
  r.expect_section(kSimTag);
  const SimTime captured_now = r.u64();
  const std::uint64_t next_seq = r.u64();
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& limb : rng_state) limb = r.u64();
  const std::uint64_t device_count = r.u64();
  if (r.ok() && device_count != sim.devices().size()) {
    set_why(why, "topology mismatch: snapshot has " + std::to_string(device_count) +
                     " device(s), simulation has " + std::to_string(sim.devices().size()));
    return false;
  }
  std::string name;
  for (std::uint64_t i = 0; r.ok() && i < device_count; ++i) {
    r.str(name);
    const auto kind = static_cast<core::TransportKind>(r.u8());
    if (!r.ok()) break;
    const auto& spec = sim.devices()[i]->spec();
    if (name != spec.name || kind != spec.transport) {
      set_why(why, "topology mismatch at device " + std::to_string(i) + ": snapshot has '" +
                       name + "', simulation has '" + spec.name + "'");
      return false;
    }
  }
  if (mode == state::RestoreMode::kInPlace && r.ok() && captured_now != sim.now()) {
    set_why(why, "in-place restore must happen at the capture instant (snapshot t=" +
                     std::to_string(captured_now) + " us, simulation t=" +
                     std::to_string(sim.now()) + " us)");
    return false;
  }
  if (!r.ok()) {
    set_why(why, r.error());
    return false;
  }

  // --- commit ---------------------------------------------------------------
  if (mode == state::RestoreMode::kRewind) sim.scheduler().rewind(captured_now, next_seq);
  sim.rng().set_state(rng_state);

  const auto roster = sim.endpoint_roster();
  r.expect_section(kMediumTag);
  sim.medium().load_state(r, roster, mode);
  // The byte stream dies mid-commit (a truncation the structural walk did
  // not model): every later read fails soft and apply() must report — the
  // caller abandons the half-restored simulation.
  if (BLAP_FAILPOINT("snapshot.load.truncated")) r.fail("snapshot truncated mid-restore");
  for (const auto& device : sim.devices()) {
    r.expect_section(kDeviceTag);
    device->load_state(r, mode);
  }
  if (mode == state::RestoreMode::kRewind && sim.observer() != nullptr)
    sim.observer()->reset();

  if (!r.ok()) {
    // Structural validation in from_bytes() makes this unreachable for any
    // snapshot that parsed; report it anyway rather than continuing on a
    // half-restored simulation.
    set_why(why, r.error());
    return false;
  }
  return true;
}

bool Snapshot::restore(core::Simulation& sim, std::string* why) const {
  return apply(sim, state::RestoreMode::kRewind, why);
}

bool Snapshot::restore_in_place(core::Simulation& sim, std::string* why) const {
  return apply(sim, state::RestoreMode::kInPlace, why);
}

std::optional<Snapshot> Snapshot::from_bytes(Bytes data, std::string* why) {
  state::StateReader r(data);
  bool strict = false;
  if (!read_header(r, strict)) {
    set_why(why, r.error());
    return std::nullopt;
  }

  // Structural walk: the SIM section is parsed (it carries the clock and the
  // device count), the medium and device sections are hopped over by their
  // recorded lengths. Any truncation, tag mismatch or trailing garbage is
  // caught here, before a restore can touch a live simulation.
  r.expect_section(kSimTag);
  const SimTime captured_now = r.u64();
  r.skip(8 + 4 * 8);  // next_seq + rng state
  const std::uint64_t device_count = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < device_count; ++i) {
    r.skip(r.u64());  // device name
    (void)r.u8();   // transport kind
  }
  r.skip(r.expect_section(kMediumTag));
  for (std::uint64_t i = 0; r.ok() && i < device_count; ++i)
    r.skip(r.expect_section(kDeviceTag));
  if (r.ok() && r.remaining() != 0)
    r.fail("trailing bytes after final section at offset " + std::to_string(r.offset()));
  if (!r.ok()) {
    set_why(why, r.error());
    return std::nullopt;
  }

  Snapshot snap;
  snap.data_ = std::move(data);
  snap.strict_ = strict;
  snap.now_ = captured_now;
  return snap;
}

bool Snapshot::save_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(data_.data(), 1, data_.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == data_.size() && closed;
}

std::optional<Snapshot> Snapshot::load_file(const std::string& path, std::string* why) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_why(why, "cannot open '" + path + "'");
    return std::nullopt;
  }
  Bytes data;
  std::array<std::uint8_t, 4096> chunk{};
  for (;;) {
    const std::size_t n = std::fread(chunk.data(), 1, chunk.size(), f);
    data.insert(data.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(n));
    if (n < chunk.size()) break;
  }
  std::fclose(f);
  return from_bytes(std::move(data), why);
}

}  // namespace blap::snapshot
