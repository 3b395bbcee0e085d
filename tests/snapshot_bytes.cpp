// snapshot_bytes.cpp — prints a digest of the relaxed snapshots taken at
// every event boundary of a fixed set of workloads, plus the strict warm
// snapshot of the bonded cell.
//
//   $ ./snapshot_bytes > snapshot_bytes.out
//
// The golden_snapshot_bytes ctest compares the output with
// tests/golden/snapshot_bytes.txt, so a field that a component stops writing,
// starts writing, or writes at another width or in another order changes a
// line. The strict snapshots in tests/replay_corpus/ already pin the bytes
// of a quiescent cell; the workloads here reach the state a strict capture
// never holds: SSP P-192 and P-256 contexts and a legacy PIN context
// mid-pairing, numeric-comparison popups, snoop records, a USB frame
// observer, an HFP call with audio, a MAP read in flight and a PBAP pull.
//
// Each workload line gives the number of captures, their total size and a
// 64-bit FNV-1a digest over every capture's bytes.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/device.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/scenarios.hpp"
#include "snapshot/snapshot.hpp"
#include "transport/usb_transport.hpp"

namespace {

using namespace blap;

struct Digest {
  std::uint64_t captures = 0;
  std::uint64_t total = 0;
  std::uint64_t h = 0xCBF29CE484222325ull;

  void add(const Bytes& capture) {
    ++captures;
    total += capture.size();
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(capture.size() >> (8 * i)));
    for (const std::uint8_t b : capture) byte(b);
  }
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  void print(const char* label) const {
    std::printf("%-22s captures=%" PRIu64 " bytes=%" PRIu64 " fnv=%016" PRIx64 "\n", label,
                captures, total, h);
  }
};

/// Run one event at a time for `window` of virtual time (or until the queue
/// empties), taking a relaxed capture after every event.
void run_capturing(core::Simulation& sim, SimTime window, Digest& digest) {
  const SimTime deadline = sim.now() + window;
  while (sim.now() < deadline && sim.scheduler().step())
    digest.add(snapshot::Snapshot::capture_relaxed(sim).bytes());
}

core::DeviceSpec spec(const char* name, const char* address) {
  core::DeviceSpec s;
  s.name = name;
  s.address = *BdAddr::parse(address);
  return s;
}

/// Two fresh devices pair; `tune` adjusts both specs before they are added.
template <typename Tune>
void pairing(const char* label, std::uint64_t seed, Tune tune) {
  core::Simulation sim(seed);
  core::DeviceSpec a = spec("phone", "00:00:00:00:00:01");
  core::DeviceSpec b = spec("headset", "00:00:00:00:00:02");
  tune(a);
  tune(b);
  core::Device& initiator = sim.add_device(a);
  core::Device& responder = sim.add_device(b);
  initiator.host().enable_snoop(true);
  initiator.host().pair(responder.address(), [](hci::Status) {});
  Digest digest;
  run_capturing(sim, 30 * kSecond, digest);
  digest.print(label);
}

/// The Table I extraction cell on a USB accessory row (a Windows stack with
/// no HCI dump: the attack sniffs USB instead, so enable_snoop is refused):
/// the accessory pairs with the target with a USB frame observer attached.
void extraction_pairing() {
  snapshot::ScenarioParams params;
  params.kind = snapshot::ScenarioParams::Kind::kExtraction;
  params.table = snapshot::ProfileTable::kTable1;
  params.profile_index = 6;
  snapshot::Scenario s = snapshot::build_scenario(1234, params);
  s.accessory->host().enable_snoop(true);
  if (transport::UsbTransport* usb = s.accessory->usb_transport())
    usb->add_frame_observer([](const transport::UsbFrame&) {});
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  Digest digest;
  run_capturing(*s.sim, 30 * kSecond, digest);
  digest.print("table1_extraction");
}

/// The warm bonded cell: the strict snapshot, then an HFP call with audio,
/// a MAP read and a PBAP pull from the accessory to the target.
void bonded_services() {
  snapshot::Scenario s = snapshot::build_scenario(1, snapshot::bonded_cell_params());
  snapshot::bonded_warm_setup(s);
  std::string why;
  const auto warm = snapshot::Snapshot::capture(*s.sim, &why);
  if (!warm.has_value()) {
    std::printf("bonded_warm_strict     refused: %s\n", why.c_str());
    return;
  }
  Digest strict;
  strict.add(warm->bytes());
  strict.print("bonded_warm_strict");

  host::HostStack& victim = s.target->host();
  host::HostStack& accessory = s.accessory->host();
  const BdAddr v = victim.address();
  const BdAddr c = accessory.address();
  victim.enable_snoop(true);
  Digest digest;
  accessory.connect_hfp(v, [](bool) {});
  run_capturing(*s.sim, 5 * kSecond, digest);
  victim.hfp_send_at(c, "RING");
  run_capturing(*s.sim, 100 * kMillisecond, digest);
  accessory.hfp_send_at(v, "ATA");
  accessory.hfp().set_call_active(true);
  victim.hfp().set_call_active(true);
  run_capturing(*s.sim, 100 * kMillisecond, digest);
  for (std::uint8_t i = 0; i < 3; ++i) {
    victim.hfp_send_audio(c, Bytes(24, i));
    accessory.hfp_send_audio(v, Bytes(24, static_cast<std::uint8_t>(0x80 | i)));
    run_capturing(*s.sim, 20 * kMillisecond, digest);
  }
  accessory.read_messages(v, [](std::optional<std::vector<std::string>>) {});
  run_capturing(*s.sim, 5 * kSecond, digest);
  accessory.pull_phonebook(v, [](std::optional<std::vector<std::string>>) {});
  run_capturing(*s.sim, 5 * kSecond, digest);
  digest.print("bonded_hfp_map_pbap");
}

}  // namespace

int main() {
  pairing("ssp_p256", 60, [](core::DeviceSpec& s) { s.controller.secure_connections = true; });
  pairing("ssp_p192", 61, [](core::DeviceSpec&) {});
  pairing("legacy_pin", 31, [](core::DeviceSpec& s) {
    s.host.simple_pairing = false;
    s.host.pin_code = "1234";
  });
  extraction_pairing();
  bonded_services();
  return 0;
}
