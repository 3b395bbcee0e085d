// commands.hpp — typed HCI command builders and parsers.
//
// Each command struct mirrors the parameter layout of the Bluetooth Core
// Specification (Vol 4, Part E §7.1/7.3/7.4). encode() produces the on-wire
// HciPacket; decode() parses parameters back (used by the simulated
// controller's dispatcher, the snoop analyzer, and the attack extractors).
#pragma once

#include <optional>
#include <string>

#include "common/bdaddr.hpp"
#include "crypto/keys.hpp"
#include "hci/packets.hpp"

namespace blap::hci {

// --- Link Control (OGF 0x01) -----------------------------------------------

struct InquiryCmd {
  std::uint32_t lap = 0x9E8B33;  // General Inquiry Access Code
  std::uint8_t inquiry_length = 8;  // x 1.28 s
  std::uint8_t num_responses = 0;   // 0 = unlimited

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<InquiryCmd> decode(BytesView params);
};

struct CreateConnectionCmd {
  BdAddr bdaddr;
  std::uint16_t packet_type = 0xCC18;
  std::uint8_t page_scan_repetition_mode = 0x01;
  std::uint8_t reserved = 0x00;
  std::uint16_t clock_offset = 0x0000;
  std::uint8_t allow_role_switch = 0x01;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<CreateConnectionCmd> decode(BytesView params);
};

struct DisconnectCmd {
  ConnectionHandle handle = kInvalidHandle;
  Status reason = Status::kRemoteUserTerminatedConnection;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<DisconnectCmd> decode(BytesView params);
};

struct AcceptConnectionRequestCmd {
  BdAddr bdaddr;
  std::uint8_t role = 0x01;  // remain peripheral

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<AcceptConnectionRequestCmd> decode(BytesView params);
};

struct RejectConnectionRequestCmd {
  BdAddr bdaddr;
  Status reason = Status::kPairingNotAllowed;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<RejectConnectionRequestCmd> decode(BytesView params);
};

/// The key-bearing command at the heart of the link key extraction attack:
/// its parameters are the peer BD_ADDR followed by the 16-byte link key, in
/// plaintext. Wire prefix: 0b 04 16 (opcode LE + length 22).
struct LinkKeyRequestReplyCmd {
  BdAddr bdaddr;
  crypto::LinkKey link_key{};

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<LinkKeyRequestReplyCmd> decode(BytesView params);
};

struct LinkKeyRequestNegativeReplyCmd {
  BdAddr bdaddr;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<LinkKeyRequestNegativeReplyCmd> decode(BytesView params);
};

/// Legacy (pre-SSP) pairing: the host supplies the user's PIN. On the wire:
/// BD_ADDR + PIN length + 16 bytes of zero-padded PIN. The PIN crosses the
/// HCI in plaintext too — legacy pairing never improved on that.
struct PinCodeRequestReplyCmd {
  BdAddr bdaddr;
  crypto::PinCode pin;  // 1..16 bytes

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<PinCodeRequestReplyCmd> decode(BytesView params);
};

struct PinCodeRequestNegativeReplyCmd {
  BdAddr bdaddr;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<PinCodeRequestNegativeReplyCmd> decode(BytesView params);
};

struct AuthenticationRequestedCmd {
  ConnectionHandle handle = kInvalidHandle;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<AuthenticationRequestedCmd> decode(BytesView params);
};

struct SetConnectionEncryptionCmd {
  ConnectionHandle handle = kInvalidHandle;
  std::uint8_t encryption_enable = 0x01;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<SetConnectionEncryptionCmd> decode(BytesView params);
};

struct RemoteNameRequestCmd {
  BdAddr bdaddr;
  std::uint8_t page_scan_repetition_mode = 0x01;
  std::uint8_t reserved = 0x00;
  std::uint16_t clock_offset = 0x0000;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<RemoteNameRequestCmd> decode(BytesView params);
};

struct IoCapabilityRequestReplyCmd {
  BdAddr bdaddr;
  IoCapability io_capability = IoCapability::kDisplayYesNo;
  std::uint8_t oob_data_present = 0x00;
  std::uint8_t authentication_requirements = 0x03;  // MITM required, dedicated bonding

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<IoCapabilityRequestReplyCmd> decode(BytesView params);
};

struct UserConfirmationRequestReplyCmd {
  BdAddr bdaddr;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<UserConfirmationRequestReplyCmd> decode(BytesView params);
};

struct UserConfirmationRequestNegativeReplyCmd {
  BdAddr bdaddr;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<UserConfirmationRequestNegativeReplyCmd> decode(
      BytesView params);
};

// --- Controller & Baseband (OGF 0x03) ---------------------------------------

struct ResetCmd {
  [[nodiscard]] HciPacket encode() const;
};

struct WriteScanEnableCmd {
  ScanEnable scan_enable = ScanEnable::kInquiryAndPage;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<WriteScanEnableCmd> decode(BytesView params);
};

struct WriteClassOfDeviceCmd {
  ClassOfDevice class_of_device;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<WriteClassOfDeviceCmd> decode(BytesView params);
};

struct WriteLocalNameCmd {
  std::string name;  // up to 248 bytes, zero padded on the wire

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<WriteLocalNameCmd> decode(BytesView params);
};

struct WriteSimplePairingModeCmd {
  std::uint8_t enabled = 0x01;

  [[nodiscard]] HciPacket encode() const;
  [[nodiscard]] static std::optional<WriteSimplePairingModeCmd> decode(BytesView params);
};

// --- Informational (OGF 0x04) -----------------------------------------------

struct ReadBdAddrCmd {
  [[nodiscard]] HciPacket encode() const;
};

}  // namespace blap::hci
