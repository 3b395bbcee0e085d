// Unit tests for the HCI packet model and typed command/event codecs.
#include <gtest/gtest.h>

#include "hci/commands.hpp"
#include "hci/events.hpp"

namespace blap::hci {
namespace {

const BdAddr kAddr = *BdAddr::parse("00:1b:7d:da:71:0a");

TEST(HciPacket, CommandWireFormat) {
  // The exact byte pattern the paper's USB extraction searches for:
  // H4 type 0x01, opcode 0x040b little-endian, length 0x16.
  LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddr;
  for (std::size_t i = 0; i < 16; ++i) cmd.link_key[i] = static_cast<std::uint8_t>(i);
  const Bytes wire = hci::encode(cmd).to_wire();
  ASSERT_GE(wire.size(), 4u);
  EXPECT_EQ(wire[0], 0x01);  // command indicator
  EXPECT_EQ(wire[1], 0x0b);  // opcode low
  EXPECT_EQ(wire[2], 0x04);  // opcode high
  EXPECT_EQ(wire[3], 0x16);  // 22 parameter bytes
  EXPECT_EQ(wire.size(), 4u + 22u);
}

TEST(IsKeyBearing, IdentifiesBothKeyMessages) {
  auto key_bearing = [](const HciPacket& p) {
    return locate_link_key(p.type, p.payload).has_value();
  };
  LinkKeyRequestReplyCmd reply;
  reply.bdaddr = kAddr;
  LinkKeyNotificationEvt notification;
  notification.bdaddr = kAddr;
  EXPECT_TRUE(key_bearing(hci::encode(reply)));
  EXPECT_TRUE(key_bearing(hci::encode(notification)));
  EXPECT_FALSE(key_bearing(make_command(op::kReset, {})));
  EXPECT_FALSE(key_bearing(make_command(op::kLinkKeyRequestNegativeReply, Bytes(6))));
  EXPECT_FALSE(key_bearing(make_event(ev::kLinkKeyRequest, Bytes(6))));
  EXPECT_FALSE(key_bearing(make_acl(1, Bytes{1, 2, 3})));
}

TEST(LocateLinkKey, PeerAndWireOrderKeyFollowTheHeader) {
  LinkKeyRequestReplyCmd reply;
  reply.bdaddr = kAddr;
  for (std::size_t i = 0; i < 16; ++i) reply.link_key[i] = static_cast<std::uint8_t>(i);
  LinkKeyNotificationEvt notification;
  notification.bdaddr = kAddr;
  notification.link_key = reply.link_key;
  for (const HciPacket& packet : {hci::encode(reply), hci::encode(notification)}) {
    const auto field = locate_link_key(packet.type, packet.payload);
    ASSERT_TRUE(field.has_value());
    EXPECT_TRUE(field->key_present);
    EXPECT_EQ(field->header, packet.type == PacketType::kCommand ? 3u : 2u);
    EXPECT_EQ(field->key_offset(), field->header + 6);
    EXPECT_EQ(field->peer(packet.payload), kAddr);
    // The wire carries the key least-significant byte first.
    const BytesView key = field->key(packet.payload);
    ASSERT_EQ(key.size(), 16u);
    EXPECT_EQ(key.front(), 15);
    EXPECT_EQ(key.back(), 0);
  }
}

TEST(HciPacket, FromWireRejectsBadTypeByte) {
  EXPECT_FALSE(HciPacket::from_wire(Bytes{0x00, 0x01}).has_value());
  EXPECT_FALSE(HciPacket::from_wire(Bytes{0x05}).has_value());
  EXPECT_FALSE(HciPacket::from_wire(Bytes{}).has_value());
}

TEST(HciPacket, WireRoundTrip) {
  const HciPacket original = make_command(op::kReset, {});
  auto parsed = HciPacket::from_wire(original.to_wire());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(HciPacket, AccessorsRejectWrongType) {
  const HciPacket cmd = make_command(op::kReset, {});
  EXPECT_FALSE(cmd.event_code().has_value());
  EXPECT_FALSE(cmd.acl_handle().has_value());
  const HciPacket evt = make_event(ev::kInquiryComplete, Bytes{0x00});
  EXPECT_FALSE(evt.command_opcode().has_value());
}

TEST(HciPacket, TruncatedHeadersReturnNullopt) {
  HciPacket packet;
  packet.type = PacketType::kCommand;
  packet.payload = {0x0b};  // half an opcode
  EXPECT_FALSE(packet.command_opcode().has_value());
  packet.type = PacketType::kEvent;
  packet.payload = {0x17};  // code but no length
  EXPECT_FALSE(packet.event_code().has_value());
}

TEST(HciPacket, TruncatedParamsReturnNullopt) {
  HciPacket packet;
  packet.type = PacketType::kCommand;
  packet.payload = {0x0b, 0x04, 0x16, 0x01};  // claims 22 bytes, has 1
  EXPECT_TRUE(packet.command_opcode().has_value());
  EXPECT_FALSE(packet.command_params().has_value());
}

TEST(HciPacket, AclFraming) {
  const Bytes data = {0xDE, 0xAD};
  const HciPacket acl = make_acl(0x0ABC, data);
  EXPECT_EQ(acl.acl_handle(), 0x0ABC);
  ASSERT_TRUE(acl.acl_data().has_value());
  EXPECT_EQ(to_bytes(*acl.acl_data()), data);
}

TEST(HciPacket, AclHandleMasksTo12Bits) {
  const HciPacket acl = make_acl(0xFFFF, {});
  EXPECT_EQ(acl.acl_handle(), 0x0FFF);
}

TEST(HciPacket, DescribeNamesKnownPackets) {
  EXPECT_NE(make_command(op::kCreateConnection, {}).describe().find("HCI_Create_Connection"),
            std::string::npos);
  EXPECT_NE(make_event(ev::kLinkKeyRequest, {}).describe().find("HCI_Link_Key_Request"),
            std::string::npos);
}

TEST(Opcodes, PaperCriticalValues) {
  EXPECT_EQ(op::kLinkKeyRequestReply, 0x040B);
  EXPECT_EQ(op::kCreateConnection, 0x0405);
  EXPECT_EQ(op::kAuthenticationRequested, 0x0411);
  EXPECT_EQ(op::kAcceptConnectionRequest, 0x0409);
  EXPECT_EQ(ev::kLinkKeyRequest, 0x17);
  EXPECT_EQ(ev::kLinkKeyNotification, 0x18);
  EXPECT_EQ(ev::kConnectionRequest, 0x04);
}

TEST(Commands, LinkKeyReplyRoundTripPreservesKeyByteOrder) {
  LinkKeyRequestReplyCmd cmd;
  cmd.bdaddr = kAddr;
  for (std::size_t i = 0; i < 16; ++i) cmd.link_key[i] = static_cast<std::uint8_t>(0xC4 - i);
  const HciPacket packet = hci::encode(cmd);
  auto back = pdu::decode<LinkKeyRequestReplyCmd>(*packet.command_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bdaddr, kAddr);
  EXPECT_EQ(back->link_key, cmd.link_key);
}

TEST(Commands, CreateConnectionRoundTrip) {
  CreateConnectionCmd cmd;
  cmd.bdaddr = kAddr;
  cmd.packet_type = 0xCC18;
  cmd.clock_offset = 0x1234;
  auto back = pdu::decode<CreateConnectionCmd>(*hci::encode(cmd).command_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bdaddr, cmd.bdaddr);
  EXPECT_EQ(back->packet_type, cmd.packet_type);
  EXPECT_EQ(back->clock_offset, cmd.clock_offset);
}

TEST(Commands, IoCapabilityReplyRejectsInvalidCapability) {
  IoCapabilityRequestReplyCmd cmd;
  cmd.bdaddr = kAddr;
  HciPacket packet = hci::encode(cmd);
  // Corrupt the IO capability byte to an out-of-range value.
  packet.payload[3 + 6] = 0x07;
  EXPECT_FALSE(pdu::decode<IoCapabilityRequestReplyCmd>(*packet.command_params()).has_value());
}

TEST(Commands, WriteLocalNamePadsTo248) {
  WriteLocalNameCmd cmd;
  cmd.name = "velvet";
  const HciPacket packet = hci::encode(cmd);
  EXPECT_EQ(packet.command_params()->size(), 248u);
  auto back = pdu::decode<WriteLocalNameCmd>(*packet.command_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, "velvet");
}

TEST(Commands, DisconnectCarriesReason) {
  DisconnectCmd cmd;
  cmd.handle = 0x0006;
  cmd.reason = Status::kRemoteUserTerminatedConnection;
  auto back = pdu::decode<DisconnectCmd>(*hci::encode(cmd).command_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->handle, 0x0006);
  EXPECT_EQ(back->reason, Status::kRemoteUserTerminatedConnection);
}

TEST(Events, ConnectionCompleteRoundTrip) {
  ConnectionCompleteEvt evt;
  evt.status = Status::kSuccess;
  evt.handle = 0x0006;
  evt.bdaddr = kAddr;
  auto back = pdu::decode<ConnectionCompleteEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->handle, 0x0006);
  EXPECT_EQ(back->bdaddr, kAddr);
  EXPECT_EQ(back->status, Status::kSuccess);
}

TEST(Events, LinkKeyNotificationRoundTripWithType) {
  LinkKeyNotificationEvt evt;
  evt.bdaddr = kAddr;
  for (std::size_t i = 0; i < 16; ++i) evt.link_key[i] = static_cast<std::uint8_t>(i * 17);
  evt.key_type = crypto::LinkKeyType::kUnauthenticatedCombinationP256;
  auto back = pdu::decode<LinkKeyNotificationEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->link_key, evt.link_key);
  EXPECT_EQ(back->key_type, crypto::LinkKeyType::kUnauthenticatedCombinationP256);
}

TEST(Events, CommandCompleteCarriesReturnParams) {
  CommandCompleteEvt evt;
  evt.command_opcode = op::kReadBdAddr;
  evt.return_parameters = {0x00, 0x0a, 0x71, 0xda, 0x7d, 0x1b, 0x00};
  auto back = pdu::decode<CommandCompleteEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->command_opcode, op::kReadBdAddr);
  EXPECT_EQ(back->return_parameters.size(), 7u);
}

TEST(Events, RemoteNameRoundTrip) {
  RemoteNameRequestCompleteEvt evt;
  evt.bdaddr = kAddr;
  evt.remote_name = "VELVET";
  auto back = pdu::decode<RemoteNameRequestCompleteEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->remote_name, "VELVET");
}

TEST(Events, InquiryResultRoundTrip) {
  InquiryResultEvt evt;
  evt.bdaddr = kAddr;
  evt.class_of_device = ClassOfDevice(ClassOfDevice::kHandsFree);
  auto back = pdu::decode<InquiryResultEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->class_of_device.raw(), ClassOfDevice::kHandsFree);
}

TEST(Events, UserConfirmationCarriesNumericValue) {
  UserConfirmationRequestEvt evt;
  evt.bdaddr = kAddr;
  evt.numeric_value = 595'311;
  auto back = pdu::decode<UserConfirmationRequestEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->numeric_value, 595'311u);
}

// Round-trip sweep over every event struct with default-ish values.
TEST(Events, AllDecodersRejectEmptyParams) {
  const Bytes empty;
  EXPECT_FALSE(pdu::decode<CommandCompleteEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<CommandStatusEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<InquiryResultEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<ConnectionRequestEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<ConnectionCompleteEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<DisconnectionCompleteEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<AuthenticationCompleteEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<EncryptionChangeEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<LinkKeyRequestEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<LinkKeyNotificationEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<IoCapabilityRequestEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<IoCapabilityResponseEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<UserConfirmationRequestEvt>(empty).has_value());
  EXPECT_FALSE(pdu::decode<SimplePairingCompleteEvt>(empty).has_value());
}

}  // namespace
}  // namespace blap::hci

// NOTE: appended — Extended Inquiry Result (EIR) coverage.
namespace blap::hci {
namespace {

TEST(Events, ExtendedInquiryResultRoundTripsName) {
  ExtendedInquiryResultEvt evt;
  evt.bdaddr = *BdAddr::parse("00:1b:7d:da:71:0a");
  evt.class_of_device = ClassOfDevice(ClassOfDevice::kHandsFree);
  evt.rssi = -42;
  evt.name = "carkit-pro";
  auto back = pdu::decode<ExtendedInquiryResultEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, "carkit-pro");
  EXPECT_EQ(back->rssi, -42);
  EXPECT_EQ(back->class_of_device.raw(), ClassOfDevice::kHandsFree);
}

TEST(Events, ExtendedInquiryResultEmptyNameYieldsEmpty) {
  ExtendedInquiryResultEvt evt;
  evt.bdaddr = *BdAddr::parse("00:1b:7d:da:71:0a");
  evt.name = "";
  auto back = pdu::decode<ExtendedInquiryResultEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->name.empty());
}

TEST(Events, ExtendedInquiryResultRejectsTruncatedEir) {
  ExtendedInquiryResultEvt evt;
  evt.bdaddr = *BdAddr::parse("00:1b:7d:da:71:0a");
  evt.name = "x";
  HciPacket packet = hci::encode(evt);
  packet.payload.resize(packet.payload.size() - 10);  // shear the EIR block
  packet.payload[1] = static_cast<std::uint8_t>(packet.payload.size() - 2);
  EXPECT_FALSE(pdu::decode<ExtendedInquiryResultEvt>(*packet.event_params()).has_value());
}

TEST(Events, ExtendedInquiryResultLongNameTruncatesSafely) {
  ExtendedInquiryResultEvt evt;
  evt.bdaddr = *BdAddr::parse("00:1b:7d:da:71:0a");
  evt.name = std::string(300, 'N');
  auto back = pdu::decode<ExtendedInquiryResultEvt>(*hci::encode(evt).event_params());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name.size(), 238u);
}

}  // namespace
}  // namespace blap::hci
