// constants.hpp — HCI opcodes, event codes and error codes used by BLAP.
//
// These numeric values follow the Bluetooth Core Specification (Vol 4,
// Part E). Getting them byte-exact matters: the paper's USB-sniff extraction
// searches captured traffic for the literal pattern "0b 04 16" — the
// little-endian opcode of HCI_Link_Key_Request_Reply (0x040B) followed by its
// parameter length (22 = 6-byte BD_ADDR + 16-byte link key).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

namespace blap::hci {

/// UART/USB packet indicator (H4 framing byte).
enum class PacketType : std::uint8_t {
  kCommand = 0x01,
  kAclData = 0x02,
  kScoData = 0x03,
  kEvent = 0x04,
};

[[nodiscard]] constexpr const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kCommand: return "Command";
    case PacketType::kAclData: return "ACL Data";
    case PacketType::kScoData: return "SCO Data";
    case PacketType::kEvent: return "Event";
  }
  return "?";
}

/// Transfer direction across the HCI.
enum class Direction : std::uint8_t {
  kHostToController = 0,  // commands, outgoing data
  kControllerToHost = 1,  // events, incoming data
};

/// Opcode = (OGF << 10) | OCF.
[[nodiscard]] constexpr std::uint16_t opcode(std::uint16_t ogf, std::uint16_t ocf) {
  return static_cast<std::uint16_t>((ogf << 10) | ocf);
}

namespace op {
// OGF 0x01 — Link Control commands.
inline constexpr std::uint16_t kInquiry = opcode(0x01, 0x0001);
inline constexpr std::uint16_t kInquiryCancel = opcode(0x01, 0x0002);
inline constexpr std::uint16_t kCreateConnection = opcode(0x01, 0x0005);
inline constexpr std::uint16_t kDisconnect = opcode(0x01, 0x0006);
inline constexpr std::uint16_t kAcceptConnectionRequest = opcode(0x01, 0x0009);
inline constexpr std::uint16_t kRejectConnectionRequest = opcode(0x01, 0x000A);
inline constexpr std::uint16_t kLinkKeyRequestReply = opcode(0x01, 0x000B);  // wire: 0b 04
inline constexpr std::uint16_t kLinkKeyRequestNegativeReply = opcode(0x01, 0x000C);
inline constexpr std::uint16_t kPinCodeRequestReply = opcode(0x01, 0x000D);
inline constexpr std::uint16_t kPinCodeRequestNegativeReply = opcode(0x01, 0x000E);
inline constexpr std::uint16_t kAuthenticationRequested = opcode(0x01, 0x0011);
inline constexpr std::uint16_t kSetConnectionEncryption = opcode(0x01, 0x0013);
inline constexpr std::uint16_t kRemoteNameRequest = opcode(0x01, 0x0019);
inline constexpr std::uint16_t kIoCapabilityRequestReply = opcode(0x01, 0x002B);
inline constexpr std::uint16_t kUserConfirmationRequestReply = opcode(0x01, 0x002C);
inline constexpr std::uint16_t kUserConfirmationRequestNegativeReply = opcode(0x01, 0x002D);

// OGF 0x03 — Controller & Baseband commands.
inline constexpr std::uint16_t kReset = opcode(0x03, 0x0003);
/// Dumps every stored bond key over the HCI in Return_Link_Keys events —
/// the other §IV-A exposure path the fleet analytics detector watches for.
inline constexpr std::uint16_t kReadStoredLinkKey = opcode(0x03, 0x000D);
inline constexpr std::uint16_t kWriteLocalName = opcode(0x03, 0x0013);
inline constexpr std::uint16_t kWriteScanEnable = opcode(0x03, 0x001A);
inline constexpr std::uint16_t kWriteClassOfDevice = opcode(0x03, 0x0024);
inline constexpr std::uint16_t kWriteSimplePairingMode = opcode(0x03, 0x0056);

// OGF 0x04 — Informational parameters.
inline constexpr std::uint16_t kReadBdAddr = opcode(0x04, 0x0009);
}  // namespace op

namespace ev {
inline constexpr std::uint8_t kInquiryComplete = 0x01;
inline constexpr std::uint8_t kInquiryResult = 0x02;
inline constexpr std::uint8_t kConnectionComplete = 0x03;
inline constexpr std::uint8_t kConnectionRequest = 0x04;
inline constexpr std::uint8_t kDisconnectionComplete = 0x05;
inline constexpr std::uint8_t kAuthenticationComplete = 0x06;
inline constexpr std::uint8_t kRemoteNameRequestComplete = 0x07;
inline constexpr std::uint8_t kEncryptionChange = 0x08;
inline constexpr std::uint8_t kCommandComplete = 0x0E;
inline constexpr std::uint8_t kCommandStatus = 0x0F;
/// Carries stored bond keys in plaintext (response to Read_Stored_Link_Key):
/// Num_Keys, then Num_Keys × (BD_ADDR, 16-byte link key).
inline constexpr std::uint8_t kReturnLinkKeys = 0x15;
inline constexpr std::uint8_t kPinCodeRequest = 0x16;
inline constexpr std::uint8_t kLinkKeyRequest = 0x17;
inline constexpr std::uint8_t kLinkKeyNotification = 0x18;
inline constexpr std::uint8_t kIoCapabilityRequest = 0x31;
inline constexpr std::uint8_t kIoCapabilityResponse = 0x32;
inline constexpr std::uint8_t kUserConfirmationRequest = 0x33;
inline constexpr std::uint8_t kSimplePairingComplete = 0x36;
inline constexpr std::uint8_t kExtendedInquiryResult = 0x2F;
}  // namespace ev

/// A command opcode or event code with its spec name.
struct CodeName {
  std::uint16_t code;
  const char* name;
};

/// Every command and event the stack knows, one row each, sorted by code.
/// The rows back opcode_name()/event_name() and the fuzz dictionary.
inline constexpr CodeName kCommandNames[] = {
    {op::kInquiry, "HCI_Inquiry"},
    {op::kInquiryCancel, "HCI_Inquiry_Cancel"},
    {op::kCreateConnection, "HCI_Create_Connection"},
    {op::kDisconnect, "HCI_Disconnect"},
    {op::kAcceptConnectionRequest, "HCI_Accept_Connection_Request"},
    {op::kRejectConnectionRequest, "HCI_Reject_Connection_Request"},
    {op::kLinkKeyRequestReply, "HCI_Link_Key_Request_Reply"},
    {op::kLinkKeyRequestNegativeReply, "HCI_Link_Key_Request_Negative_Reply"},
    {op::kPinCodeRequestReply, "HCI_PIN_Code_Request_Reply"},
    {op::kPinCodeRequestNegativeReply, "HCI_PIN_Code_Request_Negative_Reply"},
    {op::kAuthenticationRequested, "HCI_Authentication_Requested"},
    {op::kSetConnectionEncryption, "HCI_Set_Connection_Encryption"},
    {op::kRemoteNameRequest, "HCI_Remote_Name_Request"},
    {op::kIoCapabilityRequestReply, "HCI_IO_Capability_Request_Reply"},
    {op::kUserConfirmationRequestReply, "HCI_User_Confirmation_Request_Reply"},
    {op::kUserConfirmationRequestNegativeReply, "HCI_User_Confirmation_Request_Negative_Reply"},
    {op::kReset, "HCI_Reset"},
    {op::kReadStoredLinkKey, "HCI_Read_Stored_Link_Key"},
    {op::kWriteLocalName, "HCI_Write_Local_Name"},
    {op::kWriteScanEnable, "HCI_Write_Scan_Enable"},
    {op::kWriteClassOfDevice, "HCI_Write_Class_of_Device"},
    {op::kWriteSimplePairingMode, "HCI_Write_Simple_Pairing_Mode"},
    {op::kReadBdAddr, "HCI_Read_BD_ADDR"},
};
inline constexpr CodeName kEventNames[] = {
    {ev::kInquiryComplete, "HCI_Inquiry_Complete"},
    {ev::kInquiryResult, "HCI_Inquiry_Result"},
    {ev::kConnectionComplete, "HCI_Connection_Complete"},
    {ev::kConnectionRequest, "HCI_Connection_Request"},
    {ev::kDisconnectionComplete, "HCI_Disconnection_Complete"},
    {ev::kAuthenticationComplete, "HCI_Authentication_Complete"},
    {ev::kRemoteNameRequestComplete, "HCI_Remote_Name_Request_Complete"},
    {ev::kEncryptionChange, "HCI_Encryption_Change"},
    {ev::kCommandComplete, "HCI_Command_Complete"},
    {ev::kCommandStatus, "HCI_Command_Status"},
    {ev::kReturnLinkKeys, "HCI_Return_Link_Keys"},
    {ev::kPinCodeRequest, "HCI_PIN_Code_Request"},
    {ev::kLinkKeyRequest, "HCI_Link_Key_Request"},
    {ev::kLinkKeyNotification, "HCI_Link_Key_Notification"},
    {ev::kExtendedInquiryResult, "HCI_Extended_Inquiry_Result"},
    {ev::kIoCapabilityRequest, "HCI_IO_Capability_Request"},
    {ev::kIoCapabilityResponse, "HCI_IO_Capability_Response"},
    {ev::kUserConfirmationRequest, "HCI_User_Confirmation_Request"},
    {ev::kSimplePairingComplete, "HCI_Simple_Pairing_Complete"},
};

[[nodiscard]] constexpr const char* name_of(std::span<const CodeName> rows, std::uint16_t code,
                                            const char* unknown) {
  const auto by_code = [](const CodeName& row, std::uint16_t c) { return row.code < c; };
  const auto it = std::lower_bound(rows.begin(), rows.end(), code, by_code);
  return it != rows.end() && it->code == code ? it->name : unknown;
}
static_assert(std::ranges::is_sorted(kCommandNames, {}, &CodeName::code));
static_assert(std::ranges::is_sorted(kEventNames, {}, &CodeName::code));

[[nodiscard]] constexpr const char* opcode_name(std::uint16_t op) {
  return name_of(kCommandNames, op, "HCI_Unknown_Command");
}
[[nodiscard]] constexpr const char* event_name(std::uint8_t code) {
  return name_of(kEventNames, code, "HCI_Unknown_Event");
}

/// HCI error codes (Vol 1, Part F).
enum class Status : std::uint8_t {
  kSuccess = 0x00,
  kUnknownConnectionIdentifier = 0x02,
  kPageTimeout = 0x04,
  kAuthenticationFailure = 0x05,
  kPinOrKeyMissing = 0x06,
  kConnectionTimeout = 0x08,
  kConnectionAlreadyExists = 0x0B,
  kConnectionAcceptTimeout = 0x10,
  kRemoteUserTerminatedConnection = 0x13,
  kConnectionTerminatedByLocalHost = 0x16,
  kPairingNotAllowed = 0x18,
  kLmpResponseTimeout = 0x22,
};

[[nodiscard]] const char* to_string(Status status);

/// ACL connection handle (12 significant bits).
using ConnectionHandle = std::uint16_t;
inline constexpr ConnectionHandle kInvalidHandle = 0x0FFF;

/// IO capability codes used in the IO Capability exchange (Vol 2, Part E).
enum class IoCapability : std::uint8_t {
  kDisplayOnly = 0x00,
  kDisplayYesNo = 0x01,
  kKeyboardOnly = 0x02,
  kNoInputNoOutput = 0x03,
};

[[nodiscard]] const char* to_string(IoCapability capability);

/// Scan enable values for Write_Scan_Enable.
enum class ScanEnable : std::uint8_t {
  kNone = 0x00,
  kInquiryOnly = 0x01,
  kPageOnly = 0x02,
  kInquiryAndPage = 0x03,
};

}  // namespace blap::hci
