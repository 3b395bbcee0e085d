// Unit tests for the attacker's analysis tooling: snoop extractor, USB
// extractor and the Fig. 12 flow classifier — fed with hand-built inputs.
#include <gtest/gtest.h>

#include "core/flow_classifier.hpp"
#include "core/snoop_extractor.hpp"
#include "core/usb_extractor.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"

namespace blap::core {
namespace {

const BdAddr kAddrM = *BdAddr::parse("48:90:12:34:56:78");
const BdAddr kAddrC = *BdAddr::parse("00:1b:7d:da:71:0a");

crypto::LinkKey key_of(std::uint8_t fill) {
  crypto::LinkKey key{};
  key.fill(fill);
  return key;
}

hci::SnoopRecord rec(SimTime t, hci::Direction dir, hci::HciPacket packet) {
  hci::SnoopRecord record;
  record.timestamp_us = t;
  record.direction = dir;
  record.packet = std::move(packet);
  return record;
}

TEST(SnoopExtractor, FindsRequestReplyKeys) {
  hci::SnoopLog log;
  hci::LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddrM;
  cmd.link_key = key_of(0x71);
  log.append(rec(10, hci::Direction::kHostToController, hci::encode(cmd)));

  const auto keys = extract_link_keys(log);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].peer, kAddrM);
  EXPECT_EQ(keys[0].key, key_of(0x71));
  EXPECT_EQ(keys[0].source, KeySource::kLinkKeyRequestReply);
  EXPECT_EQ(keys[0].frame_index, 1u);
  EXPECT_EQ(keys[0].timestamp_us, 10u);
}

TEST(SnoopExtractor, FindsNotificationKeys) {
  hci::SnoopLog log;
  hci::LinkKeyNotificationEvt evt;
  evt.bdaddr = kAddrC;
  evt.link_key = key_of(0x42);
  log.append(rec(20, hci::Direction::kControllerToHost, hci::encode(evt)));
  const auto keys = extract_link_keys(log);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].source, KeySource::kLinkKeyNotification);
}

TEST(SnoopExtractor, IgnoresNonKeyTraffic) {
  hci::SnoopLog log;
  log.append(rec(1, hci::Direction::kHostToController,
                 hci::make_command(hci::op::kCreateConnection, Bytes(13))));
  log.append(rec(2, hci::Direction::kControllerToHost,
                 hci::make_event(hci::ev::kConnectionComplete, Bytes(11))));
  log.append(rec(3, hci::Direction::kHostToController,
                 hci::make_command(hci::op::kLinkKeyRequestNegativeReply, Bytes(6))));
  EXPECT_TRUE(extract_link_keys(log).empty());
}

TEST(SnoopExtractor, LatestKeyPerPeerWins) {
  hci::SnoopLog log;
  hci::LinkKeyRequestReplyCmd old_key;
  old_key.bdaddr = kAddrM;
  old_key.link_key = key_of(0x01);
  hci::LinkKeyRequestReplyCmd new_key;
  new_key.bdaddr = kAddrM;
  new_key.link_key = key_of(0x02);
  log.append(rec(1, hci::Direction::kHostToController, hci::encode(old_key)));
  log.append(rec(2, hci::Direction::kHostToController, hci::encode(new_key)));

  const auto latest = extract_link_key_for(log, kAddrM);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->key, key_of(0x02));
  EXPECT_FALSE(extract_link_key_for(log, kAddrC).has_value());
}

TEST(SnoopExtractor, SkipsTruncatedKeyPackets) {
  // A filtered dump (mitigation) leaves only the header: must not yield keys.
  hci::SnoopLog log;
  hci::LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddrM;
  cmd.link_key = key_of(0x77);
  hci::HciPacket packet = hci::encode(cmd);
  packet.payload.resize(3);  // header only
  log.append(rec(1, hci::Direction::kHostToController, packet));
  EXPECT_TRUE(extract_link_keys(log).empty());
}

TEST(UsbExtractor, FindsPatternInRawStream) {
  // Build a raw stream by hand: junk + key-bearing command body + junk.
  hci::LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddrM;
  cmd.link_key = key_of(0xC4);
  Bytes stream(37, 0x00);  // leading NULLs
  const Bytes body = hci::encode(cmd).payload;
  stream.insert(stream.end(), body.begin(), body.end());
  stream.insert(stream.end(), 11, 0xFF);

  const auto keys = extract_link_keys_from_usb(stream);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].peer, kAddrM);
  EXPECT_EQ(keys[0].key, key_of(0xC4));
  EXPECT_EQ(keys[0].frame_index, 37u);  // byte offset of the match
}

TEST(UsbExtractor, NoFalsePositiveOnShortStreams) {
  EXPECT_TRUE(extract_link_keys_from_usb(Bytes{0x0b, 0x04, 0x16}).empty());
  EXPECT_TRUE(extract_link_keys_from_usb(Bytes{}).empty());
}

TEST(UsbExtractor, FindsAllOccurrences) {
  hci::LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddrM;
  cmd.link_key = key_of(0x11);
  Bytes stream;
  for (int i = 0; i < 3; ++i) {
    const Bytes body = hci::encode(cmd).payload;
    stream.insert(stream.end(), body.begin(), body.end());
    stream.insert(stream.end(), 5, 0x00);
  }
  EXPECT_EQ(extract_link_keys_from_usb(stream).size(), 3u);
}

TEST(FlowClassifier, EmptyLogIsNoPairing) {
  EXPECT_EQ(classify_pairing_flow(hci::SnoopLog{}).flow, PairingFlow::kNone);
}

TEST(FlowClassifier, NormalPairingSignature) {
  hci::SnoopLog log;
  hci::CreateConnectionCmd create;
  create.bdaddr = kAddrC;
  log.append(rec(1, hci::Direction::kHostToController, hci::encode(create)));
  log.append(rec(2, hci::Direction::kHostToController,
                 hci::encode(hci::AuthenticationRequestedCmd{0x0006})));
  const auto analysis = classify_pairing_flow(log);
  EXPECT_EQ(analysis.flow, PairingFlow::kNormal);
  EXPECT_EQ(analysis.pairing_frame, 2u);
}

TEST(FlowClassifier, PageBlockedSignature) {
  hci::SnoopLog log;
  log.append(rec(1, hci::Direction::kControllerToHost,
                 hci::encode(hci::ConnectionRequestEvt{kAddrC, ClassOfDevice(0), 1})));
  hci::AcceptConnectionRequestCmd accept;
  accept.bdaddr = kAddrC;
  log.append(rec(2, hci::Direction::kHostToController, hci::encode(accept)));
  log.append(rec(3, hci::Direction::kHostToController,
                 hci::encode(hci::AuthenticationRequestedCmd{0x0003})));
  const auto analysis = classify_pairing_flow(log);
  EXPECT_EQ(analysis.flow, PairingFlow::kPageBlocked);
  EXPECT_TRUE(analysis.saw_connection_request);
  EXPECT_TRUE(analysis.saw_accept_connection);
  EXPECT_FALSE(analysis.saw_create_connection);
}

TEST(FlowClassifier, AuthWithoutEitherPrefixIsInconsistent) {
  hci::SnoopLog log;
  log.append(rec(1, hci::Direction::kHostToController,
                 hci::encode(hci::AuthenticationRequestedCmd{0x0001})));
  EXPECT_EQ(classify_pairing_flow(log).flow, PairingFlow::kInconsistent);
}

TEST(FlowClassifier, AcceptAfterAuthDoesNotCountAsPageBlocked) {
  // Ordering matters: an inbound connection AFTER the pairing started is a
  // different story (e.g. a second device connecting).
  hci::SnoopLog log;
  hci::CreateConnectionCmd create;
  create.bdaddr = kAddrC;
  log.append(rec(1, hci::Direction::kHostToController, hci::encode(create)));
  log.append(rec(2, hci::Direction::kHostToController,
                 hci::encode(hci::AuthenticationRequestedCmd{0x0006})));
  log.append(rec(3, hci::Direction::kControllerToHost,
                 hci::encode(hci::ConnectionRequestEvt{kAddrM, ClassOfDevice(0), 1})));
  hci::AcceptConnectionRequestCmd accept;
  accept.bdaddr = kAddrM;
  log.append(rec(4, hci::Direction::kHostToController, hci::encode(accept)));
  EXPECT_NE(classify_pairing_flow(log).flow, PairingFlow::kPageBlocked);
}

}  // namespace
}  // namespace blap::core
