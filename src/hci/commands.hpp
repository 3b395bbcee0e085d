// commands.hpp — typed HCI commands.
//
// Each command struct mirrors the parameter layout of the Bluetooth Core
// Specification (Vol 4, Part E §7.1/7.3/7.4) and lists it once, as kFields
// (hci/pdu.hpp). hci::encode(cmd) produces the on-wire HciPacket;
// pdu::decode<Cmd>(params) parses parameters back (used by the simulated
// controller's dispatcher, the snoop analyzer, and the attack extractors).
#pragma once

#include <string>

#include "common/bdaddr.hpp"
#include "crypto/keys.hpp"
#include "hci/pdu.hpp"

namespace blap::hci {

// --- Link Control (OGF 0x01) -----------------------------------------------

struct InquiryCmd {
  std::uint32_t lap = 0x9E8B33;  // General Inquiry Access Code
  std::uint8_t inquiry_length = 8;  // x 1.28 s
  std::uint8_t num_responses = 0;   // 0 = unlimited

  static constexpr std::uint16_t kOpcode = op::kInquiry;
  static constexpr std::tuple kFields{pdu::u24(&InquiryCmd::lap),
                                      pdu::le(&InquiryCmd::inquiry_length),
                                      pdu::le(&InquiryCmd::num_responses)};
};

struct CreateConnectionCmd {
  BdAddr bdaddr;
  std::uint16_t packet_type = 0xCC18;
  std::uint8_t page_scan_repetition_mode = 0x01;
  std::uint8_t reserved = 0x00;
  std::uint16_t clock_offset = 0x0000;
  std::uint8_t allow_role_switch = 0x01;

  static constexpr std::uint16_t kOpcode = op::kCreateConnection;
  static constexpr std::tuple kFields{
      pdu::wire(&CreateConnectionCmd::bdaddr),
      pdu::le(&CreateConnectionCmd::packet_type),
      pdu::le(&CreateConnectionCmd::page_scan_repetition_mode),
      pdu::le(&CreateConnectionCmd::reserved),
      pdu::le(&CreateConnectionCmd::clock_offset),
      pdu::le(&CreateConnectionCmd::allow_role_switch)};
};

struct DisconnectCmd {
  ConnectionHandle handle = kInvalidHandle;
  Status reason = Status::kRemoteUserTerminatedConnection;

  static constexpr std::uint16_t kOpcode = op::kDisconnect;
  static constexpr std::tuple kFields{pdu::le(&DisconnectCmd::handle),
                                      pdu::le(&DisconnectCmd::reason)};
};

struct AcceptConnectionRequestCmd {
  BdAddr bdaddr;
  std::uint8_t role = 0x01;  // remain peripheral

  static constexpr std::uint16_t kOpcode = op::kAcceptConnectionRequest;
  static constexpr std::tuple kFields{pdu::wire(&AcceptConnectionRequestCmd::bdaddr),
                                      pdu::le(&AcceptConnectionRequestCmd::role)};
};

struct RejectConnectionRequestCmd {
  BdAddr bdaddr;
  Status reason = Status::kPairingNotAllowed;

  static constexpr std::uint16_t kOpcode = op::kRejectConnectionRequest;
  static constexpr std::tuple kFields{pdu::wire(&RejectConnectionRequestCmd::bdaddr),
                                      pdu::le(&RejectConnectionRequestCmd::reason)};
};

/// The key-bearing command at the heart of the link key extraction attack:
/// its parameters are the peer BD_ADDR followed by the 16-byte link key, in
/// plaintext. Wire prefix: 0b 04 16 (opcode LE + length 22).
struct LinkKeyRequestReplyCmd {
  BdAddr bdaddr;
  crypto::LinkKey link_key{};

  static constexpr std::uint16_t kOpcode = op::kLinkKeyRequestReply;
  static constexpr std::tuple kFields{pdu::wire(&LinkKeyRequestReplyCmd::bdaddr),
                                      pdu::key_lsb_first(&LinkKeyRequestReplyCmd::link_key)};
};

struct LinkKeyRequestNegativeReplyCmd {
  BdAddr bdaddr;

  static constexpr std::uint16_t kOpcode = op::kLinkKeyRequestNegativeReply;
  static constexpr std::tuple kFields{pdu::wire(&LinkKeyRequestNegativeReplyCmd::bdaddr)};
};

/// Legacy (pre-SSP) pairing: the host supplies the user's PIN. On the wire:
/// BD_ADDR + PIN length + 16 bytes of zero-padded PIN. The PIN crosses the
/// HCI in plaintext too — legacy pairing never improved on that.
struct PinCodeRequestReplyCmd {
  BdAddr bdaddr;
  crypto::PinCode pin;  // 1..16 bytes

  static constexpr std::uint16_t kOpcode = op::kPinCodeRequestReply;
  static constexpr std::tuple kFields{pdu::wire(&PinCodeRequestReplyCmd::bdaddr),
                                      pdu::pin(&PinCodeRequestReplyCmd::pin)};
};

struct PinCodeRequestNegativeReplyCmd {
  BdAddr bdaddr;

  static constexpr std::uint16_t kOpcode = op::kPinCodeRequestNegativeReply;
  static constexpr std::tuple kFields{pdu::wire(&PinCodeRequestNegativeReplyCmd::bdaddr)};
};

struct AuthenticationRequestedCmd {
  ConnectionHandle handle = kInvalidHandle;

  static constexpr std::uint16_t kOpcode = op::kAuthenticationRequested;
  static constexpr std::tuple kFields{pdu::le(&AuthenticationRequestedCmd::handle)};
};

struct SetConnectionEncryptionCmd {
  ConnectionHandle handle = kInvalidHandle;
  std::uint8_t encryption_enable = 0x01;

  static constexpr std::uint16_t kOpcode = op::kSetConnectionEncryption;
  static constexpr std::tuple kFields{pdu::le(&SetConnectionEncryptionCmd::handle),
                                      pdu::le(&SetConnectionEncryptionCmd::encryption_enable)};
};

struct RemoteNameRequestCmd {
  BdAddr bdaddr;
  std::uint8_t page_scan_repetition_mode = 0x01;
  std::uint8_t reserved = 0x00;
  std::uint16_t clock_offset = 0x0000;

  static constexpr std::uint16_t kOpcode = op::kRemoteNameRequest;
  static constexpr std::tuple kFields{pdu::wire(&RemoteNameRequestCmd::bdaddr),
                                      pdu::le(&RemoteNameRequestCmd::page_scan_repetition_mode),
                                      pdu::le(&RemoteNameRequestCmd::reserved),
                                      pdu::le(&RemoteNameRequestCmd::clock_offset)};
};

struct IoCapabilityRequestReplyCmd {
  BdAddr bdaddr;
  IoCapability io_capability = IoCapability::kDisplayYesNo;
  std::uint8_t oob_data_present = 0x00;
  std::uint8_t authentication_requirements = 0x03;  // MITM required, dedicated bonding

  static constexpr std::uint16_t kOpcode = op::kIoCapabilityRequestReply;
  static constexpr std::tuple kFields{
      pdu::wire(&IoCapabilityRequestReplyCmd::bdaddr),
      pdu::le_max(&IoCapabilityRequestReplyCmd::io_capability, 0x03),
      pdu::le(&IoCapabilityRequestReplyCmd::oob_data_present),
      pdu::le(&IoCapabilityRequestReplyCmd::authentication_requirements)};
};

struct UserConfirmationRequestReplyCmd {
  BdAddr bdaddr;

  static constexpr std::uint16_t kOpcode = op::kUserConfirmationRequestReply;
  static constexpr std::tuple kFields{pdu::wire(&UserConfirmationRequestReplyCmd::bdaddr)};
};

struct UserConfirmationRequestNegativeReplyCmd {
  BdAddr bdaddr;

  static constexpr std::uint16_t kOpcode = op::kUserConfirmationRequestNegativeReply;
  static constexpr std::tuple kFields{
      pdu::wire(&UserConfirmationRequestNegativeReplyCmd::bdaddr)};
};

// --- Controller & Baseband (OGF 0x03) ---------------------------------------

struct ResetCmd {
  static constexpr std::uint16_t kOpcode = op::kReset;
  static constexpr std::tuple<> kFields{};
};

struct WriteScanEnableCmd {
  ScanEnable scan_enable = ScanEnable::kInquiryAndPage;

  static constexpr std::uint16_t kOpcode = op::kWriteScanEnable;
  static constexpr std::tuple kFields{pdu::le_max(&WriteScanEnableCmd::scan_enable, 0x03)};
};

struct WriteClassOfDeviceCmd {
  ClassOfDevice class_of_device;

  static constexpr std::uint16_t kOpcode = op::kWriteClassOfDevice;
  static constexpr std::tuple kFields{pdu::wire(&WriteClassOfDeviceCmd::class_of_device)};
};

struct WriteLocalNameCmd {
  std::string name;  // up to 248 bytes, zero padded on the wire

  static constexpr std::uint16_t kOpcode = op::kWriteLocalName;
  static constexpr std::tuple kFields{pdu::name248(&WriteLocalNameCmd::name)};
};

struct WriteSimplePairingModeCmd {
  std::uint8_t enabled = 0x01;

  static constexpr std::uint16_t kOpcode = op::kWriteSimplePairingMode;
  static constexpr std::tuple kFields{pdu::le_max(&WriteSimplePairingModeCmd::enabled, 0x01)};
};

// --- Informational (OGF 0x04) -----------------------------------------------

struct ReadBdAddrCmd {
  static constexpr std::uint16_t kOpcode = op::kReadBdAddr;
  static constexpr std::tuple<> kFields{};
};

/// Every typed command, for the codec harness and its tests.
using Commands =
    pdu::List<InquiryCmd, CreateConnectionCmd, DisconnectCmd, AcceptConnectionRequestCmd,
              RejectConnectionRequestCmd, LinkKeyRequestReplyCmd, LinkKeyRequestNegativeReplyCmd,
              PinCodeRequestReplyCmd, PinCodeRequestNegativeReplyCmd, AuthenticationRequestedCmd,
              SetConnectionEncryptionCmd, RemoteNameRequestCmd, IoCapabilityRequestReplyCmd,
              UserConfirmationRequestReplyCmd, UserConfirmationRequestNegativeReplyCmd, ResetCmd,
              WriteScanEnableCmd, WriteClassOfDeviceCmd, WriteLocalNameCmd,
              WriteSimplePairingModeCmd, ReadBdAddrCmd>;

}  // namespace blap::hci
