// Unit tests for the HCI transports, the USB sniffer and BinaryToHex.
#include <gtest/gtest.h>

#include "hci/commands.hpp"
#include "hci/events.hpp"
#include "transport/bin2hex.hpp"
#include "transport/uart_transport.hpp"
#include "transport/usb_sniffer.hpp"
#include "transport/usb_transport.hpp"

namespace blap::transport {
namespace {

const BdAddr kAddr = *BdAddr::parse("00:1b:7d:da:71:0a");

hci::HciPacket key_reply_packet() {
  hci::LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddr;
  for (std::size_t i = 0; i < 16; ++i) cmd.link_key[i] = static_cast<std::uint8_t>(0x10 + i);
  return hci::encode(cmd);
}

TEST(UartTransport, DeliversInBothDirections) {
  Scheduler sched;
  UartTransport transport(sched);
  std::vector<hci::HciPacket> to_controller, to_host;
  transport.set_controller_receiver([&](const hci::HciPacket& p) { to_controller.push_back(p); });
  transport.set_host_receiver([&](const hci::HciPacket& p) { to_host.push_back(p); });

  transport.send(hci::Direction::kHostToController, hci::make_command(hci::op::kReset, {}));
  transport.send(hci::Direction::kControllerToHost,
                 hci::make_event(hci::ev::kInquiryComplete, Bytes{0}));
  EXPECT_TRUE(to_controller.empty());  // asynchronous
  sched.run_all();
  ASSERT_EQ(to_controller.size(), 1u);
  ASSERT_EQ(to_host.size(), 1u);
  EXPECT_EQ(to_controller[0].command_opcode(), hci::op::kReset);
}

TEST(UartTransport, LatencyScalesWithSizeAndBaud) {
  Scheduler sched;
  UartTransport slow(sched, 115'200);
  SimTime delivered_at = 0;
  slow.set_controller_receiver([&](const hci::HciPacket&) { delivered_at = sched.now(); });
  slow.send(hci::Direction::kHostToController, hci::make_command(hci::op::kReset, {}));
  sched.run_all();
  // 4 wire bytes * 10 bits / 115200 baud ≈ 347 us.
  EXPECT_GE(delivered_at, 300u);
  EXPECT_LE(delivered_at, 400u);
}

TEST(Transport, TapsSeeBothDirections) {
  Scheduler sched;
  UartTransport transport(sched);
  int taps = 0;
  transport.add_tap([&](hci::Direction, const hci::HciPacket&) { ++taps; });
  transport.send(hci::Direction::kHostToController, hci::make_command(hci::op::kReset, {}));
  transport.send(hci::Direction::kControllerToHost,
                 hci::make_event(hci::ev::kInquiryComplete, Bytes{0}));
  EXPECT_EQ(taps, 2);  // taps fire at submission, not delivery
}

TEST(Transport, PayloadProtectionHidesKeyFromTapsOnly) {
  Scheduler sched;
  UartTransport transport(sched);
  Rng rng(1);
  transport.set_link_key_payload_protection(rng.bytes<16>());

  hci::HciPacket tapped;
  transport.add_tap([&](hci::Direction, const hci::HciPacket& p) { tapped = p; });
  hci::HciPacket delivered;
  transport.set_controller_receiver([&](const hci::HciPacket& p) { delivered = p; });

  const hci::HciPacket original = key_reply_packet();
  transport.send(hci::Direction::kHostToController, original);
  sched.run_all();

  // The endpoint sees the plaintext key; the tap sees ciphertext.
  EXPECT_EQ(delivered, original);
  EXPECT_NE(tapped, original);
  // Header and address survive; only the 16 key bytes changed.
  EXPECT_EQ(tapped.command_opcode(), hci::op::kLinkKeyRequestReply);
  auto tapped_cmd = pdu::decode<hci::LinkKeyRequestReplyCmd>(*tapped.command_params());
  auto original_cmd = pdu::decode<hci::LinkKeyRequestReplyCmd>(*original.command_params());
  ASSERT_TRUE(tapped_cmd && original_cmd);
  EXPECT_EQ(tapped_cmd->bdaddr, original_cmd->bdaddr);
  EXPECT_NE(tapped_cmd->link_key, original_cmd->link_key);
}

TEST(Transport, PayloadProtectionLeavesOtherPacketsAlone) {
  Scheduler sched;
  UartTransport transport(sched);
  Rng rng(1);
  transport.set_link_key_payload_protection(rng.bytes<16>());
  hci::HciPacket tapped;
  transport.add_tap([&](hci::Direction, const hci::HciPacket& p) { tapped = p; });
  const hci::HciPacket cmd = hci::make_command(hci::op::kReset, {});
  transport.send(hci::Direction::kHostToController, cmd);
  EXPECT_EQ(tapped, cmd);
}

TEST(Transport, PayloadProtectionCoversNotificationEvent) {
  Scheduler sched;
  UartTransport transport(sched);
  Rng rng(2);
  transport.set_link_key_payload_protection(rng.bytes<16>());
  hci::HciPacket tapped;
  transport.add_tap([&](hci::Direction, const hci::HciPacket& p) { tapped = p; });

  hci::LinkKeyNotificationEvt evt;
  evt.bdaddr = kAddr;
  evt.link_key.fill(0x42);
  transport.send(hci::Direction::kControllerToHost, hci::encode(evt));
  auto tapped_evt = pdu::decode<hci::LinkKeyNotificationEvt>(*tapped.event_params());
  ASSERT_TRUE(tapped_evt.has_value());
  EXPECT_NE(tapped_evt->link_key, evt.link_key);
}

TEST(UsbTransport, EndpointAssignment) {
  EXPECT_EQ(UsbTransport::endpoint_for(hci::PacketType::kCommand,
                                       hci::Direction::kHostToController),
            0x00);
  EXPECT_EQ(UsbTransport::endpoint_for(hci::PacketType::kEvent,
                                       hci::Direction::kControllerToHost),
            0x81);
  EXPECT_EQ(UsbTransport::endpoint_for(hci::PacketType::kAclData,
                                       hci::Direction::kHostToController),
            0x02);
  EXPECT_EQ(UsbTransport::endpoint_for(hci::PacketType::kAclData,
                                       hci::Direction::kControllerToHost),
            0x82);
}

TEST(UsbSniffer, CapturesFramesWithPayloads) {
  Scheduler sched;
  UsbTransport transport(sched);
  UsbSniffer sniffer(transport);
  transport.send(hci::Direction::kHostToController, key_reply_packet());
  ASSERT_EQ(sniffer.frame_count(), 1u);
  EXPECT_EQ(sniffer.frames()[0].endpoint, 0x00);
  // USB frames carry the packet body without the H4 type byte.
  EXPECT_EQ(sniffer.frames()[0].payload, key_reply_packet().payload);
}

TEST(UsbSniffer, RawStreamContainsOpcodePattern) {
  Scheduler sched;
  UsbTransport transport(sched);
  Rng padding(3);
  UsbSniffer sniffer(transport, &padding);
  transport.send(hci::Direction::kHostToController, key_reply_packet());
  const auto& stream = sniffer.raw_stream();
  // Search for 0b 04 16 — the paper's signature.
  bool found = false;
  for (std::size_t i = 0; i + 2 < stream.size(); ++i)
    if (stream[i] == 0x0b && stream[i + 1] == 0x04 && stream[i + 2] == 0x16) found = true;
  EXPECT_TRUE(found);
}

TEST(UsbSniffer, PaddingInsertsNulls) {
  Scheduler sched;
  UsbTransport transport(sched);
  Rng padding(3);
  UsbSniffer sniffer(transport, &padding);
  for (int i = 0; i < 20; ++i)
    transport.send(hci::Direction::kHostToController, hci::make_command(hci::op::kReset, {}));
  std::size_t payload_bytes = 20 * (hci::make_command(hci::op::kReset, {}).payload.size() + 10);
  EXPECT_GT(sniffer.raw_stream().size(), payload_bytes);  // NULL padding added
}

TEST(Bin2Hex, FormatsSpaceSeparatedLines) {
  const Bytes data = {0x0b, 0x04, 0x16, 0xff};
  EXPECT_EQ(bin_to_hex_ascii(data, 0), "0b 04 16 ff");
  EXPECT_EQ(bin_to_hex_ascii(data, 2), "0b 04\n16 ff");
}

TEST(Bin2Hex, RoundTrips) {
  Bytes data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  EXPECT_EQ(hex_ascii_to_bin(bin_to_hex_ascii(data, 16)), data);
  EXPECT_EQ(hex_ascii_to_bin(bin_to_hex_ascii(data, 0)), data);
}

TEST(Bin2Hex, EmptyInput) { EXPECT_EQ(bin_to_hex_ascii(Bytes{}), ""); }

}  // namespace
}  // namespace blap::transport
