// Unit tests for the §VII mitigation building blocks.
#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/detector.hpp"
#include "core/mitigations.hpp"
#include "core/snoop_extractor.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"
#include "transport/uart_transport.hpp"

namespace blap::core {
namespace {

const BdAddr kAddr = *BdAddr::parse("00:1b:7d:da:71:0a");

hci::HciPacket key_reply() {
  hci::LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddr;
  for (std::size_t i = 0; i < 16; ++i) cmd.link_key[i] = static_cast<std::uint8_t>(0x30 + i);
  return hci::encode(cmd);
}

hci::HciPacket key_notification() {
  hci::LinkKeyNotificationEvt evt;
  evt.bdaddr = kAddr;
  evt.link_key.fill(0x44);
  return hci::encode(evt);
}

hci::SnoopRecord rec(hci::HciPacket packet) {
  hci::SnoopRecord record;
  record.timestamp_us = 1;
  record.direction = hci::Direction::kHostToController;
  record.packet = std::move(packet);
  return record;
}

// One record shape, one answer to two questions. Is it key-bearing? Then
// header-only truncates it. Are its 16 key bytes present? Then the
// extractor and the detector both report it, payload protection encrypts
// exactly those bytes, and randomize overwrites exactly those bytes.
struct Shape {
  const char* name;
  hci::HciPacket packet;
  bool key_bearing;
  bool key_present;
};

std::vector<Shape> record_shapes() {
  // Resize the payload and, when given, overwrite the parameter-length byte.
  auto cut = [](hci::HciPacket p, std::size_t size, std::optional<std::uint8_t> length = {}) {
    p.payload.resize(size);
    if (length) p.payload[p.type == hci::PacketType::kCommand ? 2 : 1] = *length;
    return p;
  };
  const hci::HciPacket reply = key_reply();                // 3 + 22 payload bytes
  const hci::HciPacket notification = key_notification();  // 2 + 23 payload bytes
  return {
      {"full Link_Key_Request_Reply", reply, true, true},
      {"full Link_Key_Notification", notification, true, true},
      {"Link_Key_Notification without key type", cut(notification, 24, 22), true, true},
      {"Link_Key_Request_Reply, length byte 0", cut(reply, 25, 0), true, true},
      {"Link_Key_Notification, length byte 0", cut(notification, 25, 0), true, true},
      {"Link_Key_Request_Reply, length byte 40", cut(reply, 25, 40), true, true},
      {"header-only Link_Key_Request_Reply", cut(reply, 3), true, false},
      {"Link_Key_Request_Reply cut at 21 parameter bytes", cut(reply, 24), true, false},
      {"Create_Connection", hci::make_command(hci::op::kCreateConnection, Bytes(13, 0xAB)),
       false, false},
  };
}

/// `seen` differs from `original` in the 16 bytes at `offset` and nowhere else.
bool only_key_bytes_differ(const hci::HciPacket& original, const hci::HciPacket& seen,
                           std::size_t offset) {
  const Bytes& a = original.payload;
  const Bytes& b = seen.payload;
  const auto key_begin = static_cast<std::ptrdiff_t>(offset);
  const auto key_end = key_begin + 16;
  return seen.type == original.type && a.size() == b.size() &&
         std::equal(a.begin(), a.begin() + key_begin, b.begin()) &&
         std::equal(a.begin() + key_end, a.end(), b.begin() + key_end) &&
         !std::equal(a.begin() + key_begin, a.begin() + key_end, b.begin() + key_begin);
}

std::vector<analytics::Finding> plaintext_key_findings(const hci::SnoopLog& log) {
  const Bytes data = log.serialize();
  auto cursor = hci::SnoopCursor::open(data);
  auto detectors = analytics::make_default_detectors();
  while (const auto view = cursor->next()) {
    const auto ctx = analytics::RecordCtx::from_view(*view);
    for (auto& detector : detectors) detector->on_record(ctx);
  }
  std::vector<analytics::Finding> findings;
  for (auto& detector : detectors) detector->finish(findings);
  std::erase_if(findings, [](const analytics::Finding& f) {
    return f.detector != analytics::kPlaintextLinkKey;
  });
  return findings;
}

TEST(KeyRecordShapes, EveryConsumerGivesOneAnswer) {
  for (const Shape& shape : record_shapes()) {
    SCOPED_TRACE(shape.name);
    const hci::HciPacket& packet = shape.packet;
    const bool command = packet.type == hci::PacketType::kCommand;
    const std::size_t header = command ? 3 : 2;
    const std::size_t key_offset = header + 6;

    hci::SnoopLog log;
    log.append(rec(packet));
    const auto keys = extract_link_keys(log);
    const auto findings = plaintext_key_findings(log);
    ASSERT_EQ(keys.size(), shape.key_present ? 1u : 0u);
    ASSERT_EQ(findings.size(), keys.size());
    if (shape.key_present) {
      crypto::LinkKey wire_order{};
      std::reverse_copy(keys[0].key.begin(), keys[0].key.end(), wire_order.begin());
      EXPECT_TRUE(std::equal(wire_order.begin(), wire_order.end(),
                             packet.payload.begin() + static_cast<std::ptrdiff_t>(key_offset)));
      EXPECT_EQ(keys[0].peer, kAddr);
      EXPECT_EQ(findings[0].peer, kAddr);
      EXPECT_NE(findings[0].detail.find(hex(BytesView(packet.payload).subspan(key_offset, 16))),
                std::string::npos);
    }

    Scheduler scheduler;
    transport::UartTransport transport(scheduler);
    transport.set_link_key_payload_protection(Rng(3).bytes<16>());
    hci::HciPacket tapped;
    transport.add_tap([&](hci::Direction, const hci::HciPacket& p) { tapped = p; });
    transport.send(command ? hci::Direction::kHostToController : hci::Direction::kControllerToHost,
                   packet);
    if (shape.key_present) {
      EXPECT_TRUE(only_key_bytes_differ(packet, tapped, key_offset));
    } else {
      EXPECT_EQ(tapped, packet);
    }

    hci::SnoopLog header_only;
    header_only.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kHeaderOnly));
    header_only.append(rec(packet));
    const hci::SnoopRecord& truncated = header_only.records()[0];
    if (shape.key_bearing) {
      EXPECT_EQ(truncated.packet.payload.size(), std::min(packet.payload.size(), header));
      EXPECT_EQ(truncated.original_length, packet.to_wire().size());
    } else {
      EXPECT_EQ(truncated.packet, packet);
    }

    hci::SnoopLog randomized;
    randomized.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kRandomizeKey));
    randomized.append(rec(packet));
    if (shape.key_present) {
      EXPECT_TRUE(only_key_bytes_differ(packet, randomized.records()[0].packet, key_offset));
    } else {
      EXPECT_EQ(randomized.records()[0].packet, packet);
    }
  }
}

TEST(SnoopFilter, HeaderOnlyKeepsOpcodeDropsPayload) {
  hci::SnoopLog log;
  log.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kHeaderOnly));
  log.append(rec(key_reply()));
  ASSERT_EQ(log.size(), 1u);
  const auto& record = log.records()[0];
  // Paper §VII-A1: "logging only the first four bytes of the header" —
  // the H4 byte + opcode(2) + length(1); our payload keeps 3 header bytes.
  EXPECT_EQ(record.packet.payload.size(), 3u);
  EXPECT_EQ(record.packet.command_opcode(), hci::op::kLinkKeyRequestReply);
  // The truncation is visible: orig_len records the full size.
  EXPECT_GT(record.original_length, record.packet.to_wire().size());
  // Nothing extractable remains.
  EXPECT_TRUE(extract_link_keys(log).empty());
}

TEST(SnoopFilter, HeaderOnlyTruncatesEventForm) {
  hci::SnoopLog log;
  log.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kHeaderOnly));
  log.append(rec(key_notification()));
  EXPECT_EQ(log.records()[0].packet.payload.size(), 2u);
  EXPECT_TRUE(extract_link_keys(log).empty());
}

TEST(SnoopFilter, RandomizePreservesShapeButNotKey) {
  hci::SnoopLog log;
  log.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kRandomizeKey));
  const hci::HciPacket original = key_reply();
  log.append(rec(original));
  const auto& record = log.records()[0];
  // Same size, same opcode, same address — only the key bytes changed.
  EXPECT_EQ(record.packet.payload.size(), original.payload.size());
  auto logged = pdu::decode<hci::LinkKeyRequestReplyCmd>(*record.packet.command_params());
  auto truth = pdu::decode<hci::LinkKeyRequestReplyCmd>(*original.command_params());
  ASSERT_TRUE(logged && truth);
  EXPECT_EQ(logged->bdaddr, truth->bdaddr);
  EXPECT_NE(logged->link_key, truth->link_key);
  // The extractor still "finds" a key record — but it is worthless.
  const auto keys = extract_link_keys(log);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_NE(keys[0].key, truth->link_key);
}

TEST(SnoopFilter, RandomizeIsDeterministicPerSeed) {
  hci::SnoopLog log1, log2;
  log1.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kRandomizeKey, 7));
  log2.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kRandomizeKey, 7));
  log1.append(rec(key_reply()));
  log2.append(rec(key_reply()));
  EXPECT_EQ(log1.records()[0].packet, log2.records()[0].packet);
}

TEST(SnoopFilter, NonKeyTrafficPassesUntouched) {
  hci::SnoopLog log;
  log.set_filter(make_link_key_snoop_filter(SnoopFilterMode::kHeaderOnly));
  const hci::HciPacket cmd = hci::make_command(hci::op::kCreateConnection, Bytes(13, 0xAB));
  log.append(rec(cmd));
  EXPECT_EQ(log.records()[0].packet, cmd);
}

TEST(ApplyHelpers, WireUpDevices) {
  Simulation sim(9);
  DeviceSpec spec;
  spec.name = "d";
  spec.address = *BdAddr::parse("00:00:00:00:00:01");
  Device& d = sim.add_device(spec);
  EXPECT_FALSE(d.transport().link_key_payload_protected());
  apply_hci_payload_encryption(d);
  EXPECT_TRUE(d.transport().link_key_payload_protected());
  EXPECT_FALSE(d.host().config().detect_page_blocking);
  apply_page_blocking_detection(d);
  EXPECT_TRUE(d.host().config().detect_page_blocking);
}

}  // namespace
}  // namespace blap::core
