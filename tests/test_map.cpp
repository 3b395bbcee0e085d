// Tests for the MAP profile — the third §III "sensitive data" service —
// including SMS exfiltration through a page-blocked MITM bond.
#include <gtest/gtest.h>

#include "core/page_blocking.hpp"

namespace blap::core {
namespace {

DeviceSpec spec(const std::string& name, const std::string& addr) {
  DeviceSpec s;
  s.name = name;
  s.address = *BdAddr::parse(addr);
  return s;
}

std::optional<std::vector<std::string>> read_all(Simulation& sim, Device& client,
                                                 Device& server) {
  std::optional<std::vector<std::string>> result;
  bool done = false;
  client.host().read_messages(server.address(),
                              [&](std::optional<std::vector<std::string>> r) {
                                result = std::move(r);
                                done = true;
                              });
  for (int i = 0; i < 400 && !done; ++i) sim.run_for(100 * kMillisecond);
  EXPECT_TRUE(done) << "read_messages never completed";
  return result;
}

TEST(Map, AuthenticatedPeerReadsAllMessages) {
  Simulation sim(130);
  Device& carkit = sim.add_device(spec("carkit", "00:00:00:00:00:01"));
  Device& phone = sim.add_device(spec("phone", "00:00:00:00:00:02"));
  phone.host().map().clear_messages();
  phone.host().map().add_message(1, "BODY:first");
  phone.host().map().add_message(2, "BODY:second");
  phone.host().map().add_message(7, "BODY:seventh");

  const auto messages = read_all(sim, carkit, phone);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 3u);
  EXPECT_EQ((*messages)[0], "BODY:first");
  EXPECT_EQ((*messages)[2], "BODY:seventh");
  EXPECT_GT(phone.host().map().serves(), 3);  // list + three gets
  EXPECT_TRUE(carkit.host().security().is_bonded(phone.address()));
}

TEST(Map, EmptyStoreYieldsEmptyList) {
  Simulation sim(131);
  Device& carkit = sim.add_device(spec("carkit", "00:00:00:00:00:01"));
  Device& phone = sim.add_device(spec("phone", "00:00:00:00:00:02"));
  phone.host().map().clear_messages();
  const auto messages = read_all(sim, carkit, phone);
  ASSERT_TRUE(messages.has_value());
  EXPECT_TRUE(messages->empty());
}

TEST(Map, DefaultStoreHasDemoMessages) {
  Simulation sim(132);
  Device& carkit = sim.add_device(spec("carkit", "00:00:00:00:00:01"));
  Device& phone = sim.add_device(spec("phone", "00:00:00:00:00:02"));
  const auto messages = read_all(sim, carkit, phone);
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ(messages->size(), 2u);  // the default OTP + meeting messages
}

TEST(Map, PageBlockedBondStealsOneTimeCodes) {
  // The sharpest consequence of the MITM bond: SMS one-time codes leave the
  // victim silently — the "mine sensitive information" end state with MAP.
  Simulation sim(133);
  DeviceSpec a = attacker_profile().to_spec("attacker", *BdAddr::parse("aa:aa:aa:00:00:01"));
  DeviceSpec c = accessory_profile().to_spec("headset", *BdAddr::parse("00:1b:7d:da:71:0a"),
                                             ClassOfDevice(ClassOfDevice::kHandsFree));
  c.host.io_capability = hci::IoCapability::kNoInputNoOutput;
  DeviceSpec m = table2_profiles()[5].to_spec("victim", *BdAddr::parse("48:90:12:34:56:78"));
  Device& attacker = sim.add_device(a);
  Device& accessory = sim.add_device(c);
  Device& target = sim.add_device(m);

  const auto report = PageBlockingAttack::run(sim, attacker, accessory, target, {});
  ASSERT_TRUE(report.mitm_established);
  attacker.host().disconnect(target.address());
  sim.run_for(3 * kSecond);

  const auto loot = read_all(sim, attacker, target);
  ASSERT_TRUE(loot.has_value());
  bool found_otp = false;
  for (const auto& message : *loot)
    if (message.find("one-time code") != std::string::npos) found_otp = true;
  EXPECT_TRUE(found_otp);
}

TEST(Map, UnknownHandleReportsNotFound) {
  Simulation sim(134);
  Device& carkit = sim.add_device(spec("carkit", "00:00:00:00:00:01"));
  Device& phone = sim.add_device(spec("phone", "00:00:00:00:00:02"));
  // Authenticate + open a channel manually, then ask for a bogus handle.
  bool paired = false;
  carkit.host().pair(phone.address(), [&](hci::Status s) {
    paired = s == hci::Status::kSuccess;
  });
  for (int i = 0; i < 200 && !paired; ++i) sim.run_for(100 * kMillisecond);
  ASSERT_TRUE(paired);
  const auto acls = carkit.host().acls();
  ASSERT_EQ(acls.size(), 1u);
  // The carkit's own MAP service is swapped for one that hands every reply
  // to the client parser; no read_messages op is in flight to take it.
  std::optional<host::MapProfile::Reply> reply;
  host::L2cap::Service capture;
  capture.requires_authentication = true;
  capture.on_data = [&reply](const host::L2capChannel&, BytesView data) {
    reply = host::MapProfile::parse_response(data);
  };
  carkit.host().l2cap().register_service(host::psm::kMap, std::move(capture));
  carkit.host().l2cap().connect_channel(
      acls[0].handle, host::psm::kMap,
      [&](std::optional<host::L2capChannel> channel) {
        ASSERT_TRUE(channel.has_value());
        carkit.host().map().request_message(carkit.host().l2cap(), *channel, 0x9999);
      });
  sim.run_for(2 * kSecond);
  ASSERT_TRUE(reply.has_value());
  const auto* body = std::get_if<std::optional<std::string>>(&*reply);
  ASSERT_NE(body, nullptr);
  EXPECT_FALSE(body->has_value());
}

}  // namespace
}  // namespace blap::core
