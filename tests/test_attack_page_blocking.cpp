// Integration tests for the page blocking attack (paper §V) and the
// baseline MITM race (§VI fn. 1, Table II).
#include <gtest/gtest.h>

#include "core/mitigations.hpp"
#include "core/page_blocking.hpp"

namespace blap::core {
namespace {

struct Scenario {
  std::unique_ptr<Simulation> sim;
  Device* attacker = nullptr;
  Device* accessory = nullptr;
  Device* target = nullptr;
};

Scenario make_scenario(std::uint64_t seed, const DeviceProfile& victim,
                       double baseline_bias = 0.5) {
  Scenario s;
  s.sim = std::make_unique<Simulation>(seed);

  DeviceSpec a = attacker_profile().to_spec("attacker-A", *BdAddr::parse("aa:aa:aa:00:00:01"));
  a.controller.page_scan_interval = static_cast<SimTime>(1.28 * kSecond);

  DeviceSpec c = accessory_profile().to_spec("headset-C", *BdAddr::parse("00:1b:7d:da:71:0a"),
                                             ClassOfDevice(ClassOfDevice::kHandsFree));
  c.host.io_capability = hci::IoCapability::kNoInputNoOutput;  // a real headset
  c.controller.page_scan_interval =
      accessory_interval_for_bias(baseline_bias, a.controller.page_scan_interval);

  DeviceSpec m = victim.to_spec("victim-M", *BdAddr::parse("48:90:12:34:56:78"));

  s.attacker = &s.sim->add_device(a);
  s.accessory = &s.sim->add_device(c);
  s.target = &s.sim->add_device(m);
  return s;
}

const DeviceProfile& velvet() { return table2_profiles()[5]; }  // LG VELVET, v5.0
const DeviceProfile& nexus() { return table2_profiles()[1]; }   // Nexus 5x, v4.2

TEST(PageBlocking, EstablishesMitmDeterministically) {
  Scenario s = make_scenario(7, velvet());
  const auto report = PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  EXPECT_TRUE(report.ploc_established);
  EXPECT_TRUE(report.pairing_completed);
  EXPECT_TRUE(report.mitm_established);
  EXPECT_TRUE(report.attacker_holds_link_key);
}

TEST(PageBlocking, DowngradesToJustWorks) {
  Scenario s = make_scenario(8, velvet());
  const auto report = PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  EXPECT_TRUE(report.downgraded_to_just_works);
}

TEST(PageBlocking, Version5VictimSeesValuelessPopup) {
  // v5.0 regime (Fig. 7b): the victim gets a Yes/No popup, but with no
  // numeric value that could expose the spoof.
  Scenario s = make_scenario(9, velvet());
  const auto report = PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  EXPECT_TRUE(report.popup_shown);
  EXPECT_FALSE(report.popup_had_numeric_value);
}

TEST(PageBlocking, Version42VictimPairsSilently) {
  // v4.2 regime (Fig. 7a): the pairing initiator auto-confirms — no UI at all.
  Scenario s = make_scenario(10, nexus());
  const auto report = PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  EXPECT_TRUE(report.mitm_established);
  EXPECT_FALSE(report.popup_shown);
}

TEST(PageBlocking, VictimDumpMatchesFig12b) {
  Scenario s = make_scenario(11, velvet());
  const auto report = PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  EXPECT_EQ(report.m_flow, PairingFlow::kPageBlocked);
  // The rendered table carries the Fig. 12b distinguishing rows.
  const std::string table = s.target->host().snoop().format_table();
  EXPECT_NE(table.find("HCI_Connection_Request"), std::string::npos);
  EXPECT_NE(table.find("HCI_Accept_Connection_Request"), std::string::npos);
  EXPECT_NE(table.find("HCI_Authentication_Requested"), std::string::npos);
  EXPECT_EQ(table.find("HCI_Create_Connection"), std::string::npos);
}

TEST(PageBlocking, NormalPairingMatchesFig12a) {
  // Without the attacker, M's dump shows the Fig. 12a flow.
  Scenario s = make_scenario(12, velvet());
  s.attacker->set_radio_enabled(false);
  s.target->host().enable_snoop(true);
  bool done = false;
  s.target->host().pair(s.accessory->address(), [&](hci::Status) { done = true; });
  s.sim->run_for(20 * kSecond);
  ASSERT_TRUE(done);
  const auto analysis = classify_pairing_flow(s.target->host().snoop());
  EXPECT_EQ(analysis.flow, PairingFlow::kNormal);
  EXPECT_TRUE(analysis.saw_create_connection);
  EXPECT_TRUE(analysis.saw_link_key_negative_reply);
  EXPECT_TRUE(analysis.saw_io_capability_request);
}

TEST(PageBlocking, LongPlocWithoutKeepaliveDies) {
  // DESIGN.md ablation 2: hold PLOC past M's idle timeout with no dummy
  // traffic — M's host drops the silent link and the attack fails.
  Scenario s = make_scenario(13, velvet());
  PageBlockingOptions options;
  options.ploc_hold = 30 * kSecond;
  options.pairing_delay = 25 * kSecond;
  options.keepalive = false;
  options.window = 80 * kSecond;
  const auto report =
      PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, options);
  EXPECT_FALSE(report.mitm_established);
}

TEST(PageBlocking, LongPlocWithKeepaliveSurvives) {
  // ...and with SDP-style dummy data (L2CAP echo) the PLOC survives.
  Scenario s = make_scenario(14, velvet());
  PageBlockingOptions options;
  options.ploc_hold = 30 * kSecond;
  options.pairing_delay = 25 * kSecond;
  options.keepalive = true;
  options.window = 80 * kSecond;
  const auto report =
      PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, options);
  EXPECT_TRUE(report.mitm_established);
}

TEST(PageBlocking, DetectorMitigationAbortsPairing) {
  // §VII-B: pairing-initiator + connection-responder + NoInputNoOutput
  // connection initiator => drop the pairing.
  Scenario s = make_scenario(15, velvet());
  apply_page_blocking_detection(*s.target);
  const auto report = PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  EXPECT_FALSE(report.mitm_established);
  EXPECT_GT(s.target->host().detected_page_blocking_count(), 0);
}

TEST(PageBlocking, DetectorDoesNotBreakNormalPairing) {
  Scenario s = make_scenario(16, velvet());
  apply_page_blocking_detection(*s.target);
  s.attacker->set_radio_enabled(false);
  bool done = false;
  hci::Status status{};
  s.target->host().pair(s.accessory->address(), [&](hci::Status st) {
    done = true;
    status = st;
  });
  s.sim->run_for(20 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(status, hci::Status::kSuccess);
  EXPECT_EQ(s.target->host().detected_page_blocking_count(), 0);
}

TEST(PageBlocking, BaselineRaceIsIndeterministic) {
  // Without page blocking the outcome varies trial to trial (§VI fn. 1).
  int attacker_wins = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    Scenario s = make_scenario(100 + static_cast<std::uint64_t>(i), velvet(), 0.5);
    if (PageBlockingAttack::baseline_trial(*s.sim, *s.attacker, *s.accessory, *s.target))
      ++attacker_wins;
  }
  EXPECT_GT(attacker_wins, 5);          // the attacker sometimes wins...
  EXPECT_LT(attacker_wins, trials - 5);  // ...but cannot force it
}

TEST(PageBlocking, AttackIsDeterministicAcrossSeeds) {
  // With page blocking, every seed yields MITM success (the 100 % column).
  for (std::uint64_t seed = 500; seed < 510; ++seed) {
    Scenario s = make_scenario(seed, velvet());
    const auto report =
        PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
    EXPECT_TRUE(report.mitm_established) << "seed " << seed;
  }
}

}  // namespace
}  // namespace blap::core
