// Tests for the PBAP profile — the paper's exfiltration target — and the
// end-to-end "mine sensitive information" attack goal (§III-B).
#include <gtest/gtest.h>

#include "core/link_key_extraction.hpp"
#include "core/page_blocking.hpp"
#include "core/profiles.hpp"

namespace blap::core {
namespace {

DeviceSpec spec(const std::string& name, const std::string& addr) {
  DeviceSpec s;
  s.name = name;
  s.address = *BdAddr::parse(addr);
  return s;
}

TEST(Pbap, AuthenticatedPeerPullsPhonebook) {
  Simulation sim(90);
  Device& client = sim.add_device(spec("laptop", "00:00:00:00:00:01"));
  Device& phone = sim.add_device(spec("phone", "00:00:00:00:00:02"));
  phone.host().pbap().set_phonebook({"N:Mallory TEL:555-1000", "N:Trent TEL:555-2000"});

  std::optional<std::vector<std::string>> entries;
  bool done = false;
  client.host().pull_phonebook(phone.address(),
                               [&](std::optional<std::vector<std::string>> e) {
                                 entries = std::move(e);
                                 done = true;
                               });
  for (int i = 0; i < 400 && !done; ++i) sim.run_for(100 * kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_NE((*entries)[0].find("Mallory"), std::string::npos);
  // The pull triggered authentication + bonding first.
  EXPECT_TRUE(client.host().security().is_bonded(phone.address()));
  EXPECT_GT(phone.host().pbap().serves(), 0);
}

TEST(Pbap, UnauthenticatedChannelIsRefused) {
  // Bypass the host's pairing machinery: connect an ACL and try the PBAP
  // PSM directly — L2CAP's security gate must block it.
  Simulation sim(91);
  Device& client = sim.add_device(spec("laptop", "00:00:00:00:00:01"));
  Device& phone = sim.add_device(spec("phone", "00:00:00:00:00:02"));
  bool connected = false;
  client.host().connect_only(phone.address(), [&](hci::Status s) {
    connected = s == hci::Status::kSuccess;
  });
  sim.run_for(5 * kSecond);
  ASSERT_TRUE(connected);
  const auto acls = client.host().acls();
  ASSERT_EQ(acls.size(), 1u);

  bool channel_result_known = false;
  bool channel_opened = false;
  client.host().l2cap().connect_channel(acls[0].handle, host::psm::kPbap,
                                        [&](std::optional<host::L2capChannel> ch) {
                                          channel_opened = ch.has_value();
                                          channel_result_known = true;
                                        });
  sim.run_for(2 * kSecond);
  ASSERT_TRUE(channel_result_known);
  EXPECT_FALSE(channel_opened);
  EXPECT_EQ(phone.host().pbap().serves(), 0);
}

TEST(Pbap, ExtractionAttackEndsInPhonebookTheft) {
  // The complete kill chain of §III-B/§IV: extract C's key for M, then
  // impersonate C and pull M's phone book — the "sensitive data" leaves M
  // without any pairing UI ever appearing.
  Simulation sim(92);
  DeviceSpec a = attacker_profile().to_spec("attacker", *BdAddr::parse("aa:aa:aa:00:00:01"));
  DeviceSpec c = table1_profiles()[0].to_spec("accessory", *BdAddr::parse("00:1b:7d:da:71:0a"),
                                              ClassOfDevice(ClassOfDevice::kHandsFree));
  DeviceSpec m = table2_profiles()[5].to_spec("victim", *BdAddr::parse("48:90:12:34:56:78"));
  Device& attacker = sim.add_device(a);
  Device& accessory = sim.add_device(c);
  Device& target = sim.add_device(m);
  target.host().pbap().set_phonebook({"N:TopSecret TEL:555-0001"});

  LinkKeyExtractionOptions options;  // defaults include impersonation
  const auto report = LinkKeyExtractionAttack::run(sim, attacker, accessory, target, options);
  ASSERT_TRUE(report.impersonation_succeeded);

  // The attacker is still impersonating C with a live authenticated link:
  // now pull the phone book. (M's only popup so far was the legitimate
  // precondition pairing with the real C.)
  const std::size_t popups_before = target.host().popup_history().size();
  std::optional<std::vector<std::string>> loot;
  bool done = false;
  attacker.host().pull_phonebook(target.address(),
                                 [&](std::optional<std::vector<std::string>> e) {
                                   loot = std::move(e);
                                   done = true;
                                 });
  for (int i = 0; i < 200 && !done; ++i) sim.run_for(100 * kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(loot.has_value());
  ASSERT_EQ(loot->size(), 1u);
  EXPECT_NE((*loot)[0].find("TopSecret"), std::string::npos);
  // The theft itself was silent — no new popup on the victim.
  EXPECT_EQ(target.host().popup_history().size(), popups_before);
}

TEST(Pbap, PageBlockingAttackEndsInPhonebookTheft) {
  // Same end state via the second attack: the MITM bond from page blocking
  // grants PBAP access on a later silent reconnect.
  Simulation sim(93);
  DeviceSpec a = attacker_profile().to_spec("attacker", *BdAddr::parse("aa:aa:aa:00:00:01"));
  DeviceSpec c = accessory_profile().to_spec("headset", *BdAddr::parse("00:1b:7d:da:71:0a"),
                                             ClassOfDevice(ClassOfDevice::kHandsFree));
  c.host.io_capability = hci::IoCapability::kNoInputNoOutput;
  DeviceSpec m = table2_profiles()[5].to_spec("victim", *BdAddr::parse("48:90:12:34:56:78"));
  Device& attacker = sim.add_device(a);
  Device& accessory = sim.add_device(c);
  Device& target = sim.add_device(m);
  target.host().pbap().set_phonebook({"N:Payroll TEL:555-0002"});

  const auto report = PageBlockingAttack::run(sim, attacker, accessory, target, {});
  ASSERT_TRUE(report.mitm_established);
  attacker.host().disconnect(target.address());
  sim.run_for(3 * kSecond);

  std::optional<std::vector<std::string>> loot;
  bool done = false;
  attacker.host().pull_phonebook(target.address(),
                                 [&](std::optional<std::vector<std::string>> e) {
                                   loot = std::move(e);
                                   done = true;
                                 });
  for (int i = 0; i < 200 && !done; ++i) sim.run_for(100 * kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(loot.has_value());
  EXPECT_NE((*loot)[0].find("Payroll"), std::string::npos);
}

TEST(Pbap, SdpAdvertisesPbapService) {
  Simulation sim(94);
  Device& client = sim.add_device(spec("laptop", "00:00:00:00:00:01"));
  Device& phone = sim.add_device(spec("phone", "00:00:00:00:00:02"));
  std::optional<host::SdpClient::Result> result;
  client.host().discover_services(phone.address(), uuid16::kPbap,
                                  [&](std::optional<host::SdpClient::Result> r) { result = r; });
  sim.run_for(10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
}

}  // namespace
}  // namespace blap::core
