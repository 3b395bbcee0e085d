// events.hpp — typed HCI events (controller → host).
//
// Each event struct lists its parameter layout once, as kFields
// (hci/pdu.hpp); hci::encode(evt) and pdu::decode<Evt>(params) are derived
// from it. The event sequences these produce are exactly what the paper's
// Fig. 12 compares: a normal pairing shows Create_Connection →
// Connection_Complete → Authentication_Requested → Link_Key_Request → ...,
// while a pairing under page blocking starts with Connection_Request →
// Accept_Connection_Request.
#pragma once

#include <string>

#include "common/bdaddr.hpp"
#include "crypto/keys.hpp"
#include "hci/pdu.hpp"

namespace blap::hci {

struct CommandCompleteEvt {
  std::uint8_t num_hci_command_packets = 1;
  std::uint16_t command_opcode = 0;
  Bytes return_parameters;  // first byte is usually a Status

  static constexpr std::uint8_t kEventCode = ev::kCommandComplete;
  static constexpr std::tuple kFields{pdu::le(&CommandCompleteEvt::num_hci_command_packets),
                                      pdu::le(&CommandCompleteEvt::command_opcode),
                                      pdu::tail(&CommandCompleteEvt::return_parameters)};
};

struct CommandStatusEvt {
  Status status = Status::kSuccess;
  std::uint8_t num_hci_command_packets = 1;
  std::uint16_t command_opcode = 0;

  static constexpr std::uint8_t kEventCode = ev::kCommandStatus;
  static constexpr std::tuple kFields{pdu::le(&CommandStatusEvt::status),
                                      pdu::le(&CommandStatusEvt::num_hci_command_packets),
                                      pdu::le(&CommandStatusEvt::command_opcode)};
};

struct InquiryResultEvt {
  BdAddr bdaddr;
  std::uint8_t page_scan_repetition_mode = 0x01;
  ClassOfDevice class_of_device;
  std::uint16_t clock_offset = 0;

  static constexpr std::uint8_t kEventCode = ev::kInquiryResult;
  static constexpr std::tuple kFields{
      pdu::constant(1),  // Num_Responses
      pdu::wire(&InquiryResultEvt::bdaddr),
      pdu::le(&InquiryResultEvt::page_scan_repetition_mode),
      pdu::reserved(2),
      pdu::wire(&InquiryResultEvt::class_of_device),
      pdu::le(&InquiryResultEvt::clock_offset)};
};

struct InquiryCompleteEvt {
  Status status = Status::kSuccess;

  static constexpr std::uint8_t kEventCode = ev::kInquiryComplete;
  static constexpr std::tuple kFields{pdu::le(&InquiryCompleteEvt::status)};
};

/// Extended Inquiry Result (BT 2.1+): one response carrying RSSI and an EIR
/// block whose 0x09 structure holds the responder's complete local name —
/// how a scan list shows "carkit" before any connection exists (and how the
/// paper's victim picks "C" from the picker).
struct ExtendedInquiryResultEvt {
  BdAddr bdaddr;
  std::uint8_t page_scan_repetition_mode = 0x01;
  ClassOfDevice class_of_device;
  std::uint16_t clock_offset = 0;
  std::int8_t rssi = -60;
  std::string name;  // from / into the EIR complete-local-name structure

  static constexpr std::uint8_t kEventCode = ev::kExtendedInquiryResult;
  static constexpr std::tuple kFields{
      pdu::constant(1),  // Num_Responses (always 1 for EIR)
      pdu::wire(&ExtendedInquiryResultEvt::bdaddr),
      pdu::le(&ExtendedInquiryResultEvt::page_scan_repetition_mode),
      pdu::reserved(1),
      pdu::wire(&ExtendedInquiryResultEvt::class_of_device),
      pdu::le(&ExtendedInquiryResultEvt::clock_offset),
      pdu::le(&ExtendedInquiryResultEvt::rssi),
      pdu::eir_name(&ExtendedInquiryResultEvt::name)};
};

struct ConnectionRequestEvt {
  BdAddr bdaddr;
  ClassOfDevice class_of_device;
  std::uint8_t link_type = 0x01;  // ACL

  static constexpr std::uint8_t kEventCode = ev::kConnectionRequest;
  static constexpr std::tuple kFields{pdu::wire(&ConnectionRequestEvt::bdaddr),
                                      pdu::wire(&ConnectionRequestEvt::class_of_device),
                                      pdu::le(&ConnectionRequestEvt::link_type)};
};

struct ConnectionCompleteEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;
  BdAddr bdaddr;
  std::uint8_t link_type = 0x01;
  std::uint8_t encryption_enabled = 0x00;

  static constexpr std::uint8_t kEventCode = ev::kConnectionComplete;
  static constexpr std::tuple kFields{pdu::le(&ConnectionCompleteEvt::status),
                                      pdu::le(&ConnectionCompleteEvt::handle),
                                      pdu::wire(&ConnectionCompleteEvt::bdaddr),
                                      pdu::le(&ConnectionCompleteEvt::link_type),
                                      pdu::le(&ConnectionCompleteEvt::encryption_enabled)};
};

struct DisconnectionCompleteEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;
  Status reason = Status::kRemoteUserTerminatedConnection;

  static constexpr std::uint8_t kEventCode = ev::kDisconnectionComplete;
  static constexpr std::tuple kFields{pdu::le(&DisconnectionCompleteEvt::status),
                                      pdu::le(&DisconnectionCompleteEvt::handle),
                                      pdu::le(&DisconnectionCompleteEvt::reason)};
};

struct AuthenticationCompleteEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;

  static constexpr std::uint8_t kEventCode = ev::kAuthenticationComplete;
  static constexpr std::tuple kFields{pdu::le(&AuthenticationCompleteEvt::status),
                                      pdu::le(&AuthenticationCompleteEvt::handle)};
};

struct RemoteNameRequestCompleteEvt {
  Status status = Status::kSuccess;
  BdAddr bdaddr;
  std::string remote_name;

  static constexpr std::uint8_t kEventCode = ev::kRemoteNameRequestComplete;
  static constexpr std::tuple kFields{pdu::le(&RemoteNameRequestCompleteEvt::status),
                                      pdu::wire(&RemoteNameRequestCompleteEvt::bdaddr),
                                      pdu::name248(&RemoteNameRequestCompleteEvt::remote_name)};
};

struct EncryptionChangeEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;
  std::uint8_t encryption_enabled = 0x01;

  static constexpr std::uint8_t kEventCode = ev::kEncryptionChange;
  static constexpr std::tuple kFields{pdu::le(&EncryptionChangeEvt::status),
                                      pdu::le(&EncryptionChangeEvt::handle),
                                      pdu::le(&EncryptionChangeEvt::encryption_enabled)};
};

/// Controller asks the host for the stored link key of a peer. The host
/// answers with Link_Key_Request_Reply (key in plaintext over the HCI) or
/// the negative reply if no bond exists.
struct LinkKeyRequestEvt {
  BdAddr bdaddr;

  static constexpr std::uint8_t kEventCode = ev::kLinkKeyRequest;
  static constexpr std::tuple kFields{pdu::wire(&LinkKeyRequestEvt::bdaddr)};
};

/// Controller hands a freshly generated link key to the host for storage —
/// the other plaintext key crossing the HCI, also captured by HCI dump.
struct LinkKeyNotificationEvt {
  BdAddr bdaddr;
  crypto::LinkKey link_key{};
  crypto::LinkKeyType key_type = crypto::LinkKeyType::kUnauthenticatedCombinationP192;

  static constexpr std::uint8_t kEventCode = ev::kLinkKeyNotification;
  static constexpr std::tuple kFields{pdu::wire(&LinkKeyNotificationEvt::bdaddr),
                                      pdu::key_lsb_first(&LinkKeyNotificationEvt::link_key),
                                      pdu::le(&LinkKeyNotificationEvt::key_type)};
};

struct IoCapabilityRequestEvt {
  BdAddr bdaddr;

  static constexpr std::uint8_t kEventCode = ev::kIoCapabilityRequest;
  static constexpr std::tuple kFields{pdu::wire(&IoCapabilityRequestEvt::bdaddr)};
};

/// Legacy pairing: controller asks the host for the PIN code.
struct PinCodeRequestEvt {
  BdAddr bdaddr;

  static constexpr std::uint8_t kEventCode = ev::kPinCodeRequest;
  static constexpr std::tuple kFields{pdu::wire(&PinCodeRequestEvt::bdaddr)};
};

struct IoCapabilityResponseEvt {
  BdAddr bdaddr;
  IoCapability io_capability = IoCapability::kDisplayYesNo;
  std::uint8_t oob_data_present = 0x00;
  std::uint8_t authentication_requirements = 0x03;

  static constexpr std::uint8_t kEventCode = ev::kIoCapabilityResponse;
  static constexpr std::tuple kFields{
      pdu::wire(&IoCapabilityResponseEvt::bdaddr),
      pdu::le_max(&IoCapabilityResponseEvt::io_capability, 0x03),
      pdu::le(&IoCapabilityResponseEvt::oob_data_present),
      pdu::le(&IoCapabilityResponseEvt::authentication_requirements)};
};

struct UserConfirmationRequestEvt {
  BdAddr bdaddr;
  std::uint32_t numeric_value = 0;  // six-digit value from g()

  static constexpr std::uint8_t kEventCode = ev::kUserConfirmationRequest;
  static constexpr std::tuple kFields{pdu::wire(&UserConfirmationRequestEvt::bdaddr),
                                      pdu::le(&UserConfirmationRequestEvt::numeric_value)};
};

struct SimplePairingCompleteEvt {
  Status status = Status::kSuccess;
  BdAddr bdaddr;

  static constexpr std::uint8_t kEventCode = ev::kSimplePairingComplete;
  static constexpr std::tuple kFields{pdu::le(&SimplePairingCompleteEvt::status),
                                      pdu::wire(&SimplePairingCompleteEvt::bdaddr)};
};

/// Every typed event, for the codec harness and its tests.
using Events =
    pdu::List<CommandCompleteEvt, CommandStatusEvt, InquiryResultEvt, InquiryCompleteEvt,
              ExtendedInquiryResultEvt, ConnectionRequestEvt, ConnectionCompleteEvt,
              DisconnectionCompleteEvt, AuthenticationCompleteEvt, RemoteNameRequestCompleteEvt,
              EncryptionChangeEvt, LinkKeyRequestEvt, LinkKeyNotificationEvt,
              IoCapabilityRequestEvt, PinCodeRequestEvt, IoCapabilityResponseEvt,
              UserConfirmationRequestEvt, SimplePairingCompleteEvt>;

}  // namespace blap::hci
