// Unit tests for the snapshot layer: capture discipline, validation-before-
// mutation, the scenario/bundle text codecs, and the fork campaign's
// equivalence contract (restore + reseed == fresh build, byte for byte).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/state_io.hpp"
#include "hci/commands.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/fork_campaign.hpp"
#include "snapshot/fuzz_trial.hpp"
#include "snapshot/page_blocking_trial.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::snapshot {
namespace {

ScenarioParams abc_params(std::size_t profile_index = 5) {
  ScenarioParams p;
  p.kind = ScenarioParams::Kind::kAbc;
  p.table = ProfileTable::kTable2;
  p.profile_index = profile_index;
  p.accessory_transport = core::TransportKind::kUart;
  p.accessory_has_dump = true;
  p.baseline_bias = core::table2_profiles()[profile_index].baseline_mitm_success;
  return p;
}

ScenarioParams extraction_params() {
  ScenarioParams p;
  p.kind = ScenarioParams::Kind::kExtraction;
  p.profile_index = 5;
  return p;
}

// --- state_io skip -----------------------------------------------------------

TEST(StateIo, SkipAdvancesAndBoundsChecks) {
  state::StateWriter w;
  w.field(std::uint32_t{0xAAAAAAAA});
  w.field(std::uint32_t{0xBBBBBBBB});
  w.u64(0x1122334455667788ULL);
  const Bytes data = w.take();

  state::StateReader r(data);
  r.skip(8);  // past both u32s
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.remaining(), 0u);

  state::StateReader r2(data);
  r2.skip(17);  // one past the end
  EXPECT_FALSE(r2.ok());
}

/// One of every field kind, listed once for both sides like a component's.
struct EveryKind {
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  int count = 0;
  std::size_t index = 0;
  std::int8_t rssi = 0;
  hci::PacketType type = hci::PacketType::kCommand;
  bool flag = false;
  double ratio = 0.0;
  std::string text;
  Bytes raw;
  std::array<std::uint8_t, 3> octets{};
  std::uint64_t words[2] = {0, 0};
  BdAddr address;
  Uuid uuid;
  ClassOfDevice cod;
  Rng rng{0};
  std::optional<std::uint32_t> value;
  std::unique_ptr<std::string> context;
  std::vector<std::string> lines;
  std::deque<Bytes> frames;
  std::map<std::uint16_t, std::string> messages;
  std::vector<std::function<void()>> taps;

  void persist(state::StateWriter& w) const { fields(w, *this); }
  void persist(state::StateReader& r) { fields(r, *this); }
  template <state::StateIo Io, class Self>
  static void fields(Io& io, Self& self) {
    io.field(self.u8);
    io.field(self.u16);
    io.field(self.u32);
    io.field(self.u64);
    io.field(self.count);
    io.field(self.index);
    io.field(self.rssi);
    io.field(self.type);
    io.field(self.flag);
    io.field(self.ratio);
    io.field(self.text);
    io.field(self.raw);
    io.field(self.octets);
    io.field(self.words);
    io.field(self.address);
    io.field(self.uuid);
    io.field(self.cod);
    io.field(self.rng);
    io.opt(self.value);
    io.opt(self.context);
    io.seq(self.lines);
    io.seq(self.frames);
    io.map(self.messages, state::Duplicates::kFirstWins, [&io](auto& handle, auto& body) {
      io.field(handle);
      io.field(body);
    });
    io.attached(self.taps);
  }
};

Bytes bytes_of(const EveryKind& v) {
  state::StateWriter w;
  w.field(v);
  return w.take();
}

EveryKind present() {
  EveryKind v;
  v.u8 = 0xA5;
  v.u16 = 0xBEEF;
  v.u32 = 0xDEADBEEF;
  v.u64 = 0x0123456789ABCDEFULL;
  v.count = -2;
  v.index = 7;
  v.rssi = -60;
  v.type = hci::PacketType::kAclData;
  v.flag = true;
  v.ratio = 0.375;
  v.text = "ab";
  v.raw = {1, 2};
  v.octets = {3, 4, 5};
  v.words[0] = 6;
  v.words[1] = ~0ULL;
  v.address = *BdAddr::parse("48:90:12:34:56:78");
  v.uuid = Uuid::from_uuid16(0x1115);
  v.cod = ClassOfDevice(ClassOfDevice::kHandsFree);
  v.rng = Rng(99);
  v.value = 123456;
  v.context = std::make_unique<std::string>("ctx");
  v.lines = {"x", "yz"};
  v.frames = {Bytes{7}, Bytes{8, 9}};
  v.messages = {{7, "seven"}, {9, "nine"}};
  v.taps.resize(1);
  return v;
}

/// Larger than `present()` everywhere a refill can reuse storage.
EveryKind larger() {
  EveryKind v = present();
  v.text = "longer than what the reader will put here";
  v.raw = {9, 9, 9, 9};
  v.lines = {"old 0", "old 1", "old 2"};
  v.frames = {Bytes(40, 1), Bytes(40, 2), Bytes(40, 3)};
  v.messages = {{1, "one"}, {7, "old seven"}, {8, "8"}, {10, "10"}};
  v.taps.resize(3);
  return v;
}

TEST(StateIo, RefillFormsOverwriteInPlaceAndKeepDuplicateRules) {
  // Every kind round-trips through writer and reader, refilling larger old
  // contents, and an absent optional or owning pointer resets its target.
  for (const bool with_values : {true, false}) {
    EveryKind saved = present();
    if (!with_values) {
      saved.value.reset();
      saved.context.reset();
    }
    const Bytes data = bytes_of(saved);
    EveryKind loaded = larger();
    if (with_values) {
      loaded.value.reset();
      loaded.context.reset();
    }
    state::StateReader r(data);
    r.field(loaded);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(loaded.taps.size(), 3u);  // kInPlace never truncates
    loaded.taps.resize(1);
    EXPECT_EQ(bytes_of(loaded), data);
    EXPECT_EQ(loaded.lines, saved.lines);
    EXPECT_EQ(loaded.frames, saved.frames);
    EXPECT_EQ(loaded.messages, saved.messages);
    EXPECT_EQ(loaded.value.has_value(), with_values);
    EXPECT_EQ(loaded.context != nullptr, with_values);
  }

  // attached truncates the live list only under kRewind, and only down.
  const Bytes one_tap = bytes_of(present());
  for (const std::size_t live : {std::size_t{0}, std::size_t{3}}) {
    EveryKind loaded = larger();
    loaded.taps.resize(live);
    state::StateReader r(one_tap, state::RestoreMode::kRewind);
    r.field(loaded);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(loaded.taps.size(), std::min<std::size_t>(live, 1));
  }

  // A repeated key keeps the first value or the last, by the map's rule.
  state::StateWriter w;
  for (int copy = 0; copy < 2; ++copy) {
    w.u64(3);
    for (const auto& [key, value] : {std::pair<std::uint16_t, const char*>{7, "first"},
                                     {7, "second"},
                                     {9, "nine"}}) {
      w.field(key);
      w.field(std::string(value));
    }
  }
  const Bytes maps = w.take();
  std::map<std::uint16_t, std::string> first = larger().messages;
  std::map<std::uint16_t, std::string> last = first;
  state::StateReader r(maps);
  for (const auto& [target, rule] : {std::pair{&first, state::Duplicates::kFirstWins},
                                     std::pair{&last, state::Duplicates::kLastWins}}) {
    r.map(*target, rule, [&r](auto& key, auto& value) {
      r.field(key);
      r.field(value);
    });
  }
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(first, (std::map<std::uint16_t, std::string>{{7, "first"}, {9, "nine"}}));
  EXPECT_EQ(last, (std::map<std::uint16_t, std::string>{{7, "second"}, {9, "nine"}}));

  // A read past the end clears its target, and the sticky error says where.
  std::string text = "cleared on failure";
  r.field(text);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(text.empty());
  EXPECT_EQ(r.error(), "input truncated at offset " + std::to_string(maps.size()) +
                           " (need 8, 0 left)");
  EXPECT_EQ(r.u32(), 0u);

  // Every strict prefix of a full record fails sticky at the value that
  // runs past its end.
  const Bytes full = bytes_of(present());
  for (std::size_t n = 0; n < full.size(); ++n) {
    EveryKind loaded = larger();
    state::StateReader prefix(BytesView(full.data(), n));
    prefix.field(loaded);
    ASSERT_FALSE(prefix.ok()) << "prefix " << n;
    std::size_t at = 0, need = 0, left = 0;
    ASSERT_EQ(std::sscanf(prefix.error().c_str(),
                          "input truncated at offset %zu (need %zu, %zu left)", &at, &need,
                          &left),
              3)
        << prefix.error();
    EXPECT_EQ(at + left, n) << prefix.error();
    EXPECT_GT(need, left) << prefix.error();
    const std::string error = prefix.error();
    EXPECT_EQ(prefix.u64(), 0u);
    EXPECT_EQ(prefix.error(), error);
  }
}

// --- capture discipline ------------------------------------------------------

TEST(Snapshot, StrictCaptureRequiresQuiescence) {
  Scenario s = build_scenario(1, abc_params());
  std::string why;
  ASSERT_TRUE(Snapshot::capture(*s.sim, &why).has_value()) << why;

  // A pending pair operation (events queued, host op in flight) blocks the
  // strict capture with a diagnosable reason.
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  const auto blocked = Snapshot::capture(*s.sim, &why);
  EXPECT_FALSE(blocked.has_value());
  EXPECT_FALSE(why.empty());

  // Relaxed capture works at the same point.
  const Snapshot relaxed = Snapshot::capture_relaxed(*s.sim);
  EXPECT_FALSE(relaxed.strict());
  EXPECT_FALSE(relaxed.bytes().empty());
}

TEST(Snapshot, RestoreReseedEqualsFreshBuild) {
  const ScenarioParams params = abc_params();
  Scenario warm = build_scenario(100, params);
  std::string why;
  const auto snap = Snapshot::capture(*warm.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;

  // Restore + reseed must reproduce a fresh build with the trial seed,
  // byte for byte — the fork engine's whole contract.
  ASSERT_TRUE(snap->restore(*warm.sim, &why)) << why;
  warm.sim->reseed(777);
  const auto forked = Snapshot::capture(*warm.sim, &why);
  ASSERT_TRUE(forked.has_value()) << why;

  Scenario fresh = build_scenario(777, params);
  const auto built = Snapshot::capture(*fresh.sim, &why);
  ASSERT_TRUE(built.has_value()) << why;
  EXPECT_EQ(forked->bytes(), built->bytes());
}

TEST(Snapshot, RelaxedSnapshotCannotRewind) {
  Scenario s = build_scenario(2, abc_params());
  const Snapshot relaxed = Snapshot::capture_relaxed(*s.sim);
  std::string why;
  EXPECT_FALSE(relaxed.restore(*s.sim, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Snapshot, InPlaceRestoreDemandsTheCaptureInstant) {
  Scenario s = build_scenario(3, abc_params());
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  for (int i = 0; i < 10; ++i) (void)s.sim->scheduler().step();
  const Snapshot mid = Snapshot::capture_relaxed(*s.sim);

  std::string why;
  ASSERT_TRUE(mid.restore_in_place(*s.sim, &why)) << why;  // same instant: fine

  s.sim->run_for(5 * kSecond);
  EXPECT_FALSE(mid.restore_in_place(*s.sim, &why));  // clock moved on
  EXPECT_FALSE(why.empty());
}

TEST(Snapshot, TopologyMismatchLeavesSimulationUntouched) {
  Scenario uart = build_scenario(4, abc_params());
  ScenarioParams usb = abc_params();
  usb.accessory_transport = core::TransportKind::kUsb;
  Scenario other = build_scenario(4, usb);

  std::string why;
  const auto snap = Snapshot::capture(*uart.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;

  const auto before = Snapshot::capture(*other.sim, &why);
  ASSERT_TRUE(before.has_value()) << why;
  EXPECT_FALSE(snap->restore(*other.sim, &why));  // transport kinds differ
  EXPECT_FALSE(why.empty());
  const auto after = Snapshot::capture(*other.sim, &why);
  ASSERT_TRUE(after.has_value()) << why;
  EXPECT_EQ(before->bytes(), after->bytes());  // validation did not mutate
}

// --- structural validation ---------------------------------------------------

TEST(Snapshot, FromBytesRejectsCorruptInput) {
  Scenario s = build_scenario(5, abc_params());
  std::string why;
  const auto snap = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;
  const Bytes& good = snap->bytes();
  ASSERT_TRUE(Snapshot::from_bytes(good, &why).has_value()) << why;

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(Snapshot::from_bytes(bad_magic, &why).has_value());

  Bytes bad_version = good;
  bad_version[8] ^= 0xFF;  // little-endian u32 version follows the magic
  EXPECT_FALSE(Snapshot::from_bytes(bad_version, &why).has_value());

  // Every strict prefix must be rejected (section lengths run past the
  // end); so must trailing garbage. Each error names the offset it was
  // found at: inside the prefix for a cut, the end of the input for the
  // trailing byte.
  const auto error_offset = [](const std::string& text) -> std::optional<std::size_t> {
    const std::size_t at = text.find("at offset ");
    if (at == std::string::npos) return std::nullopt;
    return static_cast<std::size_t>(std::stoull(text.substr(at + 10)));
  };
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    Bytes truncated(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut));
    why.clear();
    EXPECT_FALSE(Snapshot::from_bytes(truncated, &why).has_value())
        << "prefix of " << cut << " bytes parsed";
    const auto offset = error_offset(why);
    ASSERT_TRUE(offset.has_value()) << "prefix of " << cut << " bytes: " << why;
    EXPECT_LE(*offset, cut) << why;
  }
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(Snapshot::from_bytes(trailing, &why).has_value());
  EXPECT_EQ(error_offset(why), good.size()) << why;
}

TEST(Snapshot, CraftedAttachCountIsRefusedWithoutThrowing) {
  // from_bytes checks the framing, not the counts inside a section, so a
  // medium section claiming 2^64-1 attachments reaches the restore, which
  // must refuse it rather than size anything from it.
  Scenario s = build_scenario(8, abc_params());
  std::string why;
  const auto snap = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;
  state::StateReader r(snap->bytes());
  r.skip(Snapshot::kMagic.size() + 4 + 1);
  r.skip(r.expect_section(state::tag('S', 'I', 'M', ' ')));
  r.expect_section(state::tag('M', 'E', 'D', 'M'));
  r.skip(8 + 8 + 4 * 8);                     // frame latency, next link id, Rng
  r.skip(8 + 8 + 1 + 4 * 8);                 // fault plan up to its jam windows
  r.skip(16 * r.u64() + 8);                  // jam windows, sniffer count
  ASSERT_TRUE(r.ok()) << r.error();
  Bytes crafted = snap->bytes();
  std::fill_n(crafted.begin() + static_cast<std::ptrdiff_t>(r.offset()), 8, std::uint8_t{0xFF});
  const auto bad = Snapshot::from_bytes(crafted, &why);
  ASSERT_TRUE(bad.has_value()) << why;
  EXPECT_FALSE(bad->restore(*s.sim, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Snapshot, CraftedSspCurveByteIsRefused) {
  // Step 14 of the extraction pairing opens the accessory's SSP initiator
  // context; its curve byte (32, P-256) sits at offset 1292 of a relaxed
  // capture. The initiator's next event dereferences the curve, so a
  // restore that accepted any other byte would crash the simulation.
  constexpr std::size_t kCurveByte = 1292;
  for (const int crafted : {0, 33}) {
    Scenario s = build_scenario(1234, extraction_params());
    s.accessory->host().pair(s.target->address(), [](hci::Status) {});
    for (int i = 0; i < 14; ++i) (void)s.sim->scheduler().step();
    Bytes bytes = Snapshot::capture_relaxed(*s.sim).bytes();
    ASSERT_GT(bytes.size(), kCurveByte);
    ASSERT_EQ(bytes[kCurveByte], 32);
    bytes[kCurveByte] = static_cast<std::uint8_t>(crafted);

    std::string why;
    const auto snap = Snapshot::from_bytes(bytes, &why);
    ASSERT_TRUE(snap.has_value()) << why;  // structurally sound
    const bool restored = snap->restore_in_place(*s.sim, &why);
    if (restored) s.sim->run_for(kSecond);
    EXPECT_FALSE(restored);
    EXPECT_EQ(why, "invalid SSP curve byte " + std::to_string(crafted) +
                       " in an initiator context at offset " + std::to_string(kCurveByte));
  }
}

TEST(Snapshot, FileRoundTrip) {
  Scenario s = build_scenario(6, abc_params());
  std::string why;
  const auto snap = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;

  const std::string path =
      (std::filesystem::temp_directory_path() / "blap_test_snapshot.blapsnap").string();
  ASSERT_TRUE(snap->save_file(path));
  const auto loaded = Snapshot::load_file(path, &why);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << why;
  EXPECT_EQ(loaded->bytes(), snap->bytes());
  EXPECT_EQ(loaded->strict(), snap->strict());
  EXPECT_EQ(loaded->captured_at(), snap->captured_at());
}

// --- restore onto live state ------------------------------------------------

/// The bonded cell's link-key validation probe (PAN connect over the stored
/// bond), plus the whole relaxed state it ends in.
struct ProbeRow {
  bool validated = false;
  SimTime end = 0;
  Bytes state;
  bool operator==(const ProbeRow&) const = default;
};

ProbeRow pan_probe(Scenario& s, std::uint64_t seed) {
  s.sim->reseed(seed);
  ProbeRow row;
  s.accessory->host().connect_pan(s.target->address(),
                                  [&row](bool ok) { row.validated = ok; });
  s.sim->run_for(5 * kSecond);
  row.end = s.sim->now();
  row.state = Snapshot::capture_relaxed(*s.sim).bytes();
  return row;
}

Bytes strict_bytes(core::Simulation& sim) {
  std::string why;
  const auto snap = Snapshot::capture(sim, &why);
  EXPECT_TRUE(snap.has_value()) << why;
  return snap.has_value() ? snap->bytes() : Bytes{};
}

/// Every device's bonds() addresses, which the bug report prints.
std::vector<BdAddr> bond_addresses(const Scenario& s) {
  std::vector<BdAddr> out;
  for (const auto& device : s.sim->devices())
    for (const host::BondRecord& bond : device->host().security().bonds())
      out.push_back(bond.address);
  return out;
}

/// Pair the attacker with the victim, then drop every link and drain.
void pair_attacker(Scenario& s, hci::IoCapability io) {
  s.attacker->host().config().io_capability = io;
  s.attacker->host().pair(s.target->address(), [](hci::Status) {});
  s.sim->run_for(30 * kSecond);
  for (const auto& device : s.sim->devices())
    for (const auto& acl : device->host().acls()) device->host().disconnect(acl.peer);
  s.sim->run_for(30 * kSecond);
  s.sim->run_until_idle();
}

/// Grow every container a restore refills, through public APIs, and leave
/// the cell quiescent. Strings are made longer than any small-string buffer
/// so their refill has a heap capacity to reuse.
void dirty_through_public_apis(Scenario& s) {
  host::HostStack& victim = s.target->host();
  host::HostStack& accessory = s.accessory->host();
  const BdAddr v = victim.address();
  const BdAddr c = accessory.address();
  victim.enable_snoop(true);
  accessory.enable_snoop(true);

  hci::WriteLocalNameCmd rename;
  rename.name = "victim-M, renamed well past the small-string buffer";
  s.target->transport().send(hci::Direction::kHostToController, hci::encode(rename));
  victim.config().device_name = "victim-M host name, past the small-string buffer";
  victim.config().pin_code = "0000-1111-2222-3333-4444";

  host::BondRecord bond = *victim.security().bond_for(c);
  bond.name += " (renamed past the small-string buffer)";
  for (std::uint16_t uuid16 = 0x1100; uuid16 < 0x1108; ++uuid16)
    bond.services.push_back(Uuid::from_uuid16(uuid16));
  victim.security().store_bond(bond);
  // Addresses below the accessory's, so a refill that reuses their map
  // nodes for the accessory's bond has a different key to overwrite.
  for (std::uint8_t i = 1; i <= 3; ++i) {
    bond.address = BdAddr({0x00, 0x00, 0x00, 0x00, 0x00, i});
    victim.security().store_bond(bond);
    (void)victim.security().note_pairing_failure(bond.address, hci::Status::kPageTimeout);
  }
  for (std::uint16_t handle = 0x40; handle < 0x48; ++handle)
    victim.map().add_message(handle, std::string(64, 'm'));
  victim.pbap().set_phonebook(std::vector<std::string>(12, std::string(40, 'p')));

  // A call: AT log and audio frames on both sides.
  accessory.connect_hfp(v, [](bool) {});
  s.sim->run_for(10 * kSecond);
  victim.hfp_send_at(c, "RING");
  s.sim->run_for(100 * kMillisecond);
  accessory.hfp_send_at(v, "ATA");
  s.sim->run_for(100 * kMillisecond);
  accessory.hfp().set_call_active(true);
  for (std::uint8_t i = 0; i < 6; ++i) {
    victim.hfp_send_audio(c, Bytes(48, i));
    accessory.hfp_send_audio(v, Bytes(48, i));
    s.sim->run_for(20 * kMillisecond);
  }

  victim.discover(2, [](std::vector<host::HostStack::Discovered>) {});
  accessory.discover(2, [](std::vector<host::HostStack::Discovered>) {});
  s.sim->run_for(5 * kSecond);
  // Just Works: popups without a numeric value.
  pair_attacker(s, hci::IoCapability::kNoInputNoOutput);
}

TEST(Snapshot, RestoreOntoDirtySimulationEqualsFreshRestore) {
  const ScenarioParams params = bonded_cell_params();
  constexpr std::uint64_t kProbeSeed = 4711;
  const auto warm_cell = [&params] {
    Scenario s = build_scenario(1, params);
    bonded_warm_setup(s);
    return s;
  };
  Scenario fresh = warm_cell();
  const Bytes warm_bytes = strict_bytes(*fresh.sim);
  const auto warm = Snapshot::from_bytes(warm_bytes);
  ASSERT_TRUE(warm.has_value());
  const std::vector<BdAddr> warm_bonds = bond_addresses(fresh);
  const ProbeRow fresh_row = pan_probe(fresh, kProbeSeed);

  // One stack-fuzz trial (restore, recovery fault plan, injected HCI
  // traffic, drain), then a restore onto what it left behind.
  Scenario s = warm_cell();
  const Bytes input = {0, 6, 0x05, 0x04, 0x00, 0x01, 0x00, 0x00, 7, 40};
  (void)run_fuzz_stack_trial(s, *warm, 3, input);
  std::string why;
  ASSERT_TRUE(warm->restore(*s.sim, &why)) << why;
  EXPECT_EQ(strict_bytes(*s.sim), warm_bytes);

  dirty_through_public_apis(s);
  const host::HostStack& victim = s.target->host();
  const host::HostStack& accessory = s.accessory->host();
  EXPECT_EQ(victim.security().bond_count(), 5u);  // + the attacker's
  EXPECT_EQ(victim.map().message_count(), 10u);
  EXPECT_FALSE(victim.hfp().received_audio().empty());
  EXPECT_FALSE(accessory.hfp().received_audio().empty());
  EXPECT_FALSE(victim.snoop().records().empty());
  EXPECT_FALSE(victim.popup_history().empty());
  bool with_value = false;
  bool without_value = false;
  for (const auto& device : s.sim->devices()) {
    for (const host::PopupRecord& popup : device->host().popup_history()) {
      with_value |= popup.numeric_value.has_value();
      without_value |= !popup.numeric_value.has_value();
    }
  }
  EXPECT_TRUE(with_value);
  EXPECT_TRUE(without_value);
  const auto big = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(big.has_value()) << why;
  ASSERT_GT(big->bytes().size(), 2 * warm_bytes.size());

  // Warm onto the dirty cell: the capture and the next trial are a fresh
  // build's.
  ASSERT_TRUE(warm->restore(*s.sim, &why)) << why;
  EXPECT_EQ(strict_bytes(*s.sim), warm_bytes);
  EXPECT_EQ(bond_addresses(s), warm_bonds);
  EXPECT_EQ(pan_probe(s, kProbeSeed), fresh_row);

  // The larger snapshot onto a warm cell and back.
  Scenario w = warm_cell();
  ASSERT_TRUE(big->restore(*w.sim, &why)) << why;
  EXPECT_EQ(strict_bytes(*w.sim), big->bytes());
  ASSERT_TRUE(warm->restore(*w.sim, &why)) << why;
  EXPECT_EQ(strict_bytes(*w.sim), warm_bytes);
  EXPECT_EQ(pan_probe(w, kProbeSeed), fresh_row);

  // The larger snapshot onto a cell whose attacker pairing showed numeric
  // values where the larger snapshot's popups have none, and logged other
  // HCI records at the same positions; its next trial equals the one on a
  // cell that never ran anything.
  w.target->host().enable_snoop(true);
  w.accessory->host().enable_snoop(true);
  pair_attacker(w, hci::IoCapability::kDisplayYesNo);
  ASSERT_TRUE(big->restore(*w.sim, &why)) << why;
  EXPECT_EQ(strict_bytes(*w.sim), big->bytes());
  Scenario blank = build_scenario(1, params);
  ASSERT_TRUE(big->restore(*blank.sim, &why)) << why;
  EXPECT_EQ(pan_probe(w, kProbeSeed), pan_probe(blank, kProbeSeed));
}

// --- scenario codec ----------------------------------------------------------

TEST(ScenarioCodec, RoundTrips) {
  for (const ScenarioParams& p :
       {abc_params(0), abc_params(5), extraction_params(), [] {
          ScenarioParams q = abc_params(3);
          q.accessory_transport = core::TransportKind::kUsb;
          q.accessory_has_dump = false;
          q.baseline_bias = 0.123456789012345;
          return q;
        }()}) {
    const std::string text = encode_scenario(p);
    const auto back = decode_scenario(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, p) << text;
  }
}

TEST(ScenarioCodec, RejectsMalformedManifests) {
  EXPECT_FALSE(decode_scenario("").has_value());
  EXPECT_FALSE(decode_scenario("table=2 profile=5").has_value());  // no kind
  EXPECT_FALSE(decode_scenario("kind=abc bogus=1").has_value());   // unknown key
  EXPECT_FALSE(decode_scenario("kind=abc table=2 profile=9999").has_value());
  EXPECT_FALSE(decode_scenario("kind=warp").has_value());

  // A bias the accessory's page-scan interval is undefined for: NaN, outside
  // [0, 1), or so close to 1 that the interval overflows SimTime.
  char below_one[64];
  std::snprintf(below_one, sizeof below_one, "%a", std::nextafter(1.0, 0.0));
  for (const std::string& bias :
       std::vector<std::string>{"nan", "inf", "-inf", "-0.1", "1.0", "0x1p+0", below_one})
    EXPECT_FALSE(decode_scenario("kind=abc table=2 profile=5 bias=" + bias).has_value())
        << bias;
  for (const char* bias : {"0", "0x1p-1", "0.9999999999999"})
    EXPECT_TRUE(decode_scenario(std::string("kind=abc table=2 profile=5 bias=") + bias)
                    .has_value())
        << bias;
}

// --- replay bundle codec -----------------------------------------------------

TEST(ReplayBundleCodec, RoundTrips) {
  ReplayBundle b;
  b.scenario = abc_params();
  b.build_seed = 424242;
  b.trial_index = 17;
  b.trial_seed = 0xDEADBEEFCAFEF00DULL;
  b.trial_kind = "page_blocking_attack_metrics";
  faults::FaultPlan plan;
  plan.seed = 99;
  plan.loss = 0.35;
  b.fault_plan = plan;
  b.expected_success = true;
  b.expected_value = 0.25;
  b.expected_virtual_end = 30030000;
  b.expected_metrics_json = "{\n  \"counters\": {}\n}";
  b.snapshot = {0x42, 0x4C, 0x41, 0x50, 0x00, 0xFF};

  std::string why;
  const auto back = ReplayBundle::from_text(b.to_text(), &why);
  ASSERT_TRUE(back.has_value()) << why;
  EXPECT_EQ(back->scenario, b.scenario);
  EXPECT_EQ(back->build_seed, b.build_seed);
  EXPECT_EQ(back->trial_index, b.trial_index);
  EXPECT_EQ(back->trial_seed, b.trial_seed);
  EXPECT_EQ(back->trial_kind, b.trial_kind);
  ASSERT_TRUE(back->fault_plan.has_value());
  EXPECT_EQ(back->fault_plan->seed, plan.seed);
  EXPECT_EQ(back->fault_plan->loss, plan.loss);
  EXPECT_EQ(back->expected_success, b.expected_success);
  EXPECT_EQ(back->expected_value, b.expected_value);
  EXPECT_EQ(back->expected_virtual_end, b.expected_virtual_end);
  EXPECT_EQ(back->expected_metrics_json, b.expected_metrics_json);
  EXPECT_EQ(back->snapshot, b.snapshot);
}

TEST(ReplayBundleCodec, RejectsMalformedText) {
  std::string why;
  EXPECT_FALSE(ReplayBundle::from_text("", &why).has_value());
  EXPECT_FALSE(ReplayBundle::from_text("not-a-bundle\n", &why).has_value());

  ReplayBundle b;
  b.scenario = abc_params();
  b.trial_kind = "page_blocking_baseline";
  b.snapshot = {1, 2, 3};
  const std::string good = b.to_text();
  EXPECT_TRUE(ReplayBundle::from_text(good, &why).has_value()) << why;
  EXPECT_FALSE(ReplayBundle::from_text("bogus_key: 1\n" + good, &why).has_value());
}

TEST(Replay, KnownTrialKinds) {
  EXPECT_TRUE(known_trial_kind("page_blocking_baseline"));
  EXPECT_TRUE(known_trial_kind("page_blocking_baseline_metrics"));
  EXPECT_TRUE(known_trial_kind("page_blocking_attack"));
  EXPECT_TRUE(known_trial_kind("page_blocking_attack_metrics"));
  EXPECT_TRUE(known_trial_kind("chaos_bonded_cell"));
  EXPECT_TRUE(known_trial_kind("fuzz_stack"));
  EXPECT_FALSE(known_trial_kind("warp_drive"));
  EXPECT_FALSE(known_trial_kind(""));

  // Every page-blocking trial's kind names that trial back.
  for (const bool attack : {false, true}) {
    for (const bool metrics : {false, true}) {
      const PageBlockingTrial trial{.attack = attack, .metrics = metrics, .loss = 0.35};
      const auto back = PageBlockingTrial::from_kind(trial.kind());
      ASSERT_TRUE(back.has_value()) << trial.kind();
      EXPECT_EQ(back->attack, attack);
      EXPECT_EQ(back->metrics, metrics);
    }
  }
}

TEST(Replay, ChaosAndFuzzVerdictsAreTheRecordedOnes) {
  // A chaos bundle records success exactly when the stack held, and the
  // outcome code as its value.
  for (const ChaosOutcome outcome :
       {ChaosOutcome::kCompleted, ChaosOutcome::kRecovered, ChaosOutcome::kCleanError,
        ChaosOutcome::kStuck, ChaosOutcome::kViolation}) {
    const campaign::TrialResult verdict = chaos_verdict(outcome, 1234);
    EXPECT_EQ(verdict.success,
              outcome != ChaosOutcome::kStuck && outcome != ChaosOutcome::kViolation);
    EXPECT_EQ(verdict.value, static_cast<double>(static_cast<int>(outcome)));
    EXPECT_EQ(verdict.virtual_end, 1234u);
  }
  // A fuzz_stack bundle records success when there is no finding, and the
  // violation count as its value.
  FuzzStackReport report;
  report.virtual_end = 99;
  EXPECT_TRUE(fuzz_stack_verdict(report).success);
  report.violations.resize(2);
  EXPECT_FALSE(fuzz_stack_verdict(report).success);
  EXPECT_EQ(fuzz_stack_verdict(report).value, 2.0);
  EXPECT_EQ(fuzz_stack_verdict(report).virtual_end, 99u);
}

// --- fork campaign -----------------------------------------------------------

TEST(ForkCampaign, MatchesRebuildPathByteForByte) {
  // Every Table II row's baseline and attack, both with metrics on, and the
  // attack under bench_fault_sweep's 35 % loss plan: forked at 1 and 8
  // workers, each equals a per-trial rebuild byte for byte.
  struct Input {
    std::size_t row;
    PageBlockingTrial trial;
  };
  std::vector<Input> inputs;
  for (std::size_t row = 0; row < core::table2_profiles().size(); ++row) {
    inputs.push_back({row, {.attack = false}});
    inputs.push_back({row, {.attack = true}});
  }
  inputs.push_back({5, {.attack = false, .metrics = true}});
  inputs.push_back({5, {.attack = true, .metrics = true}});
  inputs.push_back({5, {.attack = true, .metrics = true, .loss = 0.35}});

  for (const Input& input : inputs) {
    SCOPED_TRACE("row " + std::to_string(input.row) + " " + std::string(input.trial.kind()) +
                 (input.trial.loss ? " loss" : ""));
    const ScenarioParams params = abc_params(input.row);
    campaign::CampaignConfig cfg;
    cfg.label = "fork equivalence";
    cfg.trials = 8;
    cfg.root_seed = 4242;
    cfg.jobs = 1;
    const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
      Scenario s = build_scenario(spec.seed, params);
      return input.trial(spec, s);
    });
    for (const unsigned jobs : {1u, 8u}) {
      cfg.jobs = jobs;
      ForkStats stats;
      const auto fork = run_fork_campaign(cfg, params, input.trial, nullptr, &stats);
      EXPECT_TRUE(stats.fork_used) << stats.fallback_reason;
      EXPECT_EQ(rebuild.to_json(true), fork.to_json(true)) << "jobs " << jobs;
    }
  }
}

TEST(ForkCampaign, WarmSetupSharesAnExpensivePrefix) {
  // Warm-up: bond C to M. The per-trial body then reuses the bond. The fork
  // path must match the rebuild path (build + warm-up + reseed) exactly.
  const ScenarioParams params = extraction_params();
  const WarmSetupFn warm = [](Scenario& s) {
    s.accessory->host().pair(s.target->address(), [](hci::Status) {});
    s.sim->run_for(30 * kSecond);
    s.sim->run_until_idle();
  };
  const ForkTrialFn body = [](const campaign::TrialSpec&, Scenario& s) {
    bool validated = false;
    s.accessory->host().connect_pan(s.target->address(),
                                    [&validated](bool ok) { validated = ok; });
    s.sim->run_for(5 * kSecond);
    campaign::TrialResult r;
    r.success = validated;
    r.virtual_end = s.sim->now();
    return r;
  };

  campaign::CampaignConfig cfg;
  cfg.label = "warm fork equivalence";
  cfg.trials = 6;
  cfg.root_seed = 999;

  const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
    Scenario s = build_scenario(cfg.root_seed, params);
    warm(s);
    s.sim->reseed(spec.seed);
    return body(spec, s);
  });
  ForkStats stats;
  const auto fork = run_fork_campaign(cfg, params, body, nullptr, &stats, warm);
  EXPECT_TRUE(stats.fork_used) << stats.fallback_reason;
  EXPECT_EQ(rebuild.to_json(true), fork.to_json(true));
  EXPECT_EQ(fork.success_rate, 1.0);  // the bond validates every trial
}

TEST(ForkCampaign, FallsBackWhenWarmPointIsNotQuiescent) {
  // A warm-up that leaves an event in flight makes the strict capture
  // impossible; the runner must fall back to per-trial rebuilds and still
  // produce the same aggregates as the manual rebuild path.
  const ScenarioParams params = abc_params();
  const WarmSetupFn bad_warm = [](Scenario& s) {
    s.sim->scheduler().schedule_in(kSecond, [] {});
  };
  const ForkTrialFn body = [](const campaign::TrialSpec&, Scenario& s) {
    s.sim->run_for(2 * kSecond);
    campaign::TrialResult r;
    r.success = true;
    r.virtual_end = s.sim->now();
    return r;
  };

  campaign::CampaignConfig cfg;
  cfg.label = "fallback";
  cfg.trials = 4;
  cfg.root_seed = 77;

  ForkStats stats;
  const auto fork = run_fork_campaign(cfg, params, body, nullptr, &stats, bad_warm);
  EXPECT_FALSE(stats.fork_used);
  EXPECT_FALSE(stats.fallback_reason.empty());

  const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
    Scenario s = build_scenario(cfg.root_seed, params);
    bad_warm(s);
    s.sim->reseed(spec.seed);
    return body(spec, s);
  });
  EXPECT_EQ(rebuild.to_json(true), fork.to_json(true));
}

TEST(ForkCampaign, RecordsFailureBundlesThatReplay) {
  const ScenarioParams params = abc_params();
  campaign::CampaignConfig cfg;
  cfg.label = "record";
  cfg.trials = 20;
  cfg.root_seed = 31337;

  const auto dir =
      (std::filesystem::temp_directory_path() / "blap_test_record").string();
  // With metrics on or off, a bundle names the kind that replays its trial.
  for (const PageBlockingTrial trial : {PageBlockingTrial{}, PageBlockingTrial{.metrics = true}}) {
    SCOPED_TRACE(std::string(trial.kind()));
    std::filesystem::remove_all(dir);
    RecordOptions rec;
    rec.dir = dir;
    rec.limit = 2;
    ForkStats stats;
    const auto summary = run_fork_campaign(cfg, params, trial, &rec, &stats);
    ASSERT_TRUE(stats.fork_used) << stats.fallback_reason;
    ASSERT_FALSE(stats.bundle_paths.empty());  // baselines do fail sometimes
    EXPECT_LE(stats.bundle_paths.size(), rec.limit);
    EXPECT_LT(summary.success_rate, 1.0);

    for (const std::string& path : stats.bundle_paths) {
      std::string why;
      const auto bundle = ReplayBundle::load_file(path, &why);
      ASSERT_TRUE(bundle.has_value()) << path << ": " << why;
      EXPECT_EQ(bundle->trial_kind, trial.kind());
      EXPECT_EQ(bundle->expected_metrics_json.empty(), !trial.metrics);
      const ReplayOutcome outcome = replay_bundle(*bundle, /*want_trace=*/false);
      EXPECT_TRUE(outcome.executed) << outcome.error;
      EXPECT_TRUE(outcome.reproduced()) << path;
      EXPECT_TRUE(outcome.snapshot_matches) << path;
      EXPECT_FALSE(bundle->expected_success);  // default predicate records failures
    }
  }

  // A body that is not a PageBlockingTrial names no kind: recording it is
  // refused before any trial runs.
  RecordOptions rec;
  rec.dir = dir;
  const ForkTrialFn wrapped = [](const campaign::TrialSpec& spec, Scenario& s) {
    return PageBlockingTrial{}(spec, s);
  };
  EXPECT_THROW((void)run_fork_campaign(cfg, params, wrapped, &rec), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blap::snapshot
