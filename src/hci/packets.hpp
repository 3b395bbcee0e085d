// packets.hpp — the generic HCI packet model.
//
// An HciPacket is what crosses the host–controller interface: a packet type
// (H4 indicator byte) plus the type-specific payload. Commands and events
// carry a small header inside the payload; ACL data carries a connection
// handle. The same bytes appear in three places in BLAP:
//   * on the transport between host and controller,
//   * in btsnoop records written by the HCI dump, and
//   * inside USB frames captured by the sniffer.
#pragma once

#include <optional>
#include <string>

#include "common/bdaddr.hpp"
#include "common/bytes.hpp"
#include "hci/constants.hpp"

namespace blap::hci {

struct HciPacket {
  PacketType type = PacketType::kCommand;
  Bytes payload;  // excludes the H4 type indicator byte

  /// H4 wire form: type byte followed by payload. This is the byte string
  /// the paper's RADIX view shows, e.g. "01 0b 04 16 ..." for a
  /// Link_Key_Request_Reply command.
  [[nodiscard]] Bytes to_wire() const;

  /// Parse an H4-framed packet (type byte + payload).
  [[nodiscard]] static std::optional<HciPacket> from_wire(BytesView wire);

  /// For a command packet: the 16-bit opcode (nullopt for other types or
  /// truncated payloads).
  [[nodiscard]] std::optional<std::uint16_t> command_opcode() const;

  /// For a command packet: the parameter bytes after the 3-byte header.
  [[nodiscard]] std::optional<BytesView> command_params() const;

  /// For an event packet: the event code.
  [[nodiscard]] std::optional<std::uint8_t> event_code() const;

  /// For an event packet: the parameter bytes after the 2-byte header.
  [[nodiscard]] std::optional<BytesView> event_params() const;

  /// For an ACL data packet: the connection handle (low 12 bits).
  [[nodiscard]] std::optional<ConnectionHandle> acl_handle() const;

  /// For an ACL data packet: the Packet_Boundary flag (header bits 12–13 —
  /// 0 first non-flushable, 1 continuation fragment, 2 first flushable,
  /// 3 complete PDU). acl_handle() masks these off; fragment-aware readers
  /// need them intact.
  [[nodiscard]] std::optional<std::uint8_t> acl_pb_flag() const;

  /// For an ACL data packet: the Broadcast flag (header bits 14–15).
  [[nodiscard]] std::optional<std::uint8_t> acl_bc_flag() const;

  /// For an ACL data packet: the data after the 4-byte header.
  [[nodiscard]] std::optional<BytesView> acl_data() const;

  /// Human-readable one-line summary ("Command HCI_Create_Connection (7 bytes)").
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const HciPacket&, const HciPacket&) = default;
};

/// Where a key-bearing packet carries its plaintext link key. Exactly two
/// messages do: HCI_Link_Key_Request_Reply (command) and
/// HCI_Link_Key_Notification (event). Both put the peer BD_ADDR(6) and the
/// Link_Key(16, wire order) right after their header.
struct LinkKeyField {
  /// Bytes before the peer BD_ADDR: 3 for the command (opcode + length),
  /// 2 for the event (code + length).
  std::size_t header = 0;
  /// The payload holds all 16 key bytes.
  bool key_present = false;

  [[nodiscard]] std::size_t key_offset() const { return header + BdAddr::kSize; }
  /// The peer address; requires key_present.
  [[nodiscard]] BdAddr peer(BytesView payload) const;
  /// The 16 key bytes in wire order; requires key_present.
  [[nodiscard]] BytesView key(BytesView payload) const { return payload.subspan(key_offset(), 16); }
};

/// The one answer to "does this packet carry a link key, and where?", shared
/// by the §IV-A extractor, the plaintext_link_key detector and both §VII-A
/// defenses. `payload` follows the H4 type byte (HciPacket::payload or
/// SnoopRecordView::wire.subspan(1)). nullopt unless the packet is
/// key-bearing, which the opcode or event code alone decides; key_present
/// then counts the bytes actually there, never the parameter-length byte.
[[nodiscard]] inline std::optional<LinkKeyField> locate_link_key(PacketType type,
                                                                 BytesView payload) {
  std::size_t header = 0;
  if (type == PacketType::kCommand && payload.size() >= 3 &&
      (payload[0] | (payload[1] << 8)) == op::kLinkKeyRequestReply) {
    header = 3;
  } else if (type == PacketType::kEvent && payload.size() >= 2 &&
             payload[0] == ev::kLinkKeyNotification) {
    header = 2;
  } else {
    return std::nullopt;
  }
  return LinkKeyField{header, payload.size() >= header + BdAddr::kSize + 16};
}

/// Build a command packet: opcode + parameter length + parameters.
[[nodiscard]] HciPacket make_command(std::uint16_t op, BytesView params);

/// Build an event packet: event code + parameter length + parameters.
[[nodiscard]] HciPacket make_event(std::uint8_t code, BytesView params);

/// Build an ACL data packet: handle (PB/BC flags zero) + length + data.
[[nodiscard]] HciPacket make_acl(ConnectionHandle handle, BytesView data);

/// Build an ACL data packet with explicit Packet_Boundary and Broadcast
/// flags (each masked to 2 bits) — continuation fragments carry pb = 1.
/// Exact inverse of acl_handle()/acl_pb_flag()/acl_bc_flag()/acl_data().
[[nodiscard]] HciPacket make_acl_fragment(ConnectionHandle handle, std::uint8_t pb_flag,
                                          std::uint8_t bc_flag, BytesView data);

}  // namespace blap::hci
