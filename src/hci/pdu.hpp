// pdu.hpp — one field list per PDU; every codec is derived from it.
//
// Each typed HCI command, HCI event and LMP payload lists its parameter
// layout once, in wire order, as `static constexpr std::tuple kFields{...}`
// of the field kinds below (in the spirit of AOSP tools/pdl, without a
// generator). pdu::encode and pdu::decode<T> walk that list; hci::encode
// wraps the parameters in the header named by the struct's kOpcode (a
// command) or kEventCode (an event).
//
// The decoder rejects a short read anywhere and every value check a kind
// makes (le_max, constant, the name and EIR block sizes, the PIN length, the
// public-key width). Bytes after the last field are ignored, as real
// controllers ignore padded parameters, unless a field claims the rest of
// the block (name248, eir_name, tail).
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>

#include "common/bdaddr.hpp"
#include "common/bytes.hpp"
#include "crypto/keys.hpp"
#include "hci/packets.hpp"

namespace blap::pdu {

/// A list of PDU types, looped over by the codec harness and its tests.
template <typename... Ts>
struct List {};

// --- field kinds: put(value, writer) and get(value, reader) -> accepted ------

/// Little-endian integer of the member's width (enums through their u8),
/// rejected above `max`.
template <typename T, typename M>
struct Le {
  M T::*member;
  std::uint32_t max = 0xFFFFFFFF;
  void put(const T& v, ByteWriter& w) const {
    if constexpr (sizeof(M) == 1) w.u8(static_cast<std::uint8_t>(v.*member));
    else if constexpr (sizeof(M) == 2) w.u16(v.*member);
    else w.u32(v.*member);
  }
  bool get(T& v, ByteReader& r) const {
    std::optional<std::uint32_t> raw;
    if constexpr (sizeof(M) == 1) raw = r.u8();
    else if constexpr (sizeof(M) == 2) raw = r.u16();
    else raw = r.u32();
    if (!raw || *raw > max) return false;
    v.*member = static_cast<M>(*raw);
    return true;
  }
};
template <typename T, typename M>
constexpr Le<T, M> le(M T::*member) { return {member}; }
template <typename T, typename M>
constexpr Le<T, M> le_max(M T::*member, std::uint8_t max) { return {member, max}; }

/// 24-bit little-endian value (an inquiry access code's LAP).
template <typename T>
struct U24 {
  std::uint32_t T::*member;
  void put(const T& v, ByteWriter& w) const {
    for (int i = 0; i < 3; ++i) w.u8(static_cast<std::uint8_t>(v.*member >> (8 * i)));
  }
  bool get(T& v, ByteReader& r) const {
    const auto b = r.array<3>();
    if (!b) return false;
    v.*member = 0;
    for (std::size_t i = 0; i < 3; ++i) v.*member |= static_cast<std::uint32_t>((*b)[i]) << (8 * i);
    return true;
  }
};
template <typename T>
constexpr U24<T> u24(std::uint32_t T::*member) { return {member}; }

/// A type with its own to_wire/from_wire (BdAddr, ClassOfDevice).
template <typename T, typename M>
struct Wire {
  M T::*member;
  void put(const T& v, ByteWriter& w) const { (v.*member).to_wire(w); }
  bool get(T& v, ByteReader& r) const {
    auto value = M::from_wire(r);
    if (value) v.*member = *value;
    return value.has_value();
  }
};
template <typename T, typename M>
constexpr Wire<T, M> wire(M T::*member) { return {member}; }

/// A 16-byte link key sent least-significant byte first: the order the
/// paper's Fig. 11 shows ("in big-endian" once reversed).
template <typename T>
struct KeyLsbFirst {
  crypto::LinkKey T::*member;
  void put(const T& v, ByteWriter& w) const {
    const crypto::LinkKey& key = v.*member;
    for (std::size_t i = key.size(); i-- > 0;) w.u8(key[i]);
  }
  bool get(T& v, ByteReader& r) const {
    const auto wire_order = r.array<16>();
    if (wire_order) std::reverse_copy(wire_order->begin(), wire_order->end(), (v.*member).begin());
    return wire_order.has_value();
  }
};
template <typename T>
constexpr KeyLsbFirst<T> key_lsb_first(crypto::LinkKey T::*member) { return {member}; }

/// A byte that must hold `value` (Num_Responses = 1 in inquiry results).
struct Constant {
  std::uint8_t value;
  void put(const auto&, ByteWriter& w) const { w.u8(value); }
  bool get(auto&, ByteReader& r) const {
    const auto raw = r.u8();
    return raw && *raw == value;
  }
};
constexpr Constant constant(std::uint8_t value) { return {value}; }

/// Reserved bytes: written as zero, skipped on read.
struct Reserved {
  std::size_t size;
  void put(const auto&, ByteWriter& w) const {
    for (std::size_t i = 0; i < size; ++i) w.u8(0);
  }
  bool get(auto&, ByteReader& r) const { return r.skip(size); }
};
constexpr Reserved reserved(std::size_t size) { return {size}; }

/// Writes `text` NUL-padded to `size` bytes, keeping at most `keep` of it.
inline void put_padded(ByteWriter& w, const std::string& text, std::size_t keep,
                       std::size_t size) {
  const std::size_t n = std::min(text.size(), keep);
  for (std::size_t i = 0; i < size; ++i) w.u8(i < n ? static_cast<std::uint8_t>(text[i]) : 0);
}

/// A 248-byte NUL-padded name that fills exactly the rest of the block;
/// the encoder keeps at most 247 characters.
template <typename T>
struct Name248 {
  std::string T::*member;
  void put(const T& v, ByteWriter& w) const { put_padded(w, v.*member, 247, 248); }
  bool get(T& v, ByteReader& r) const {
    if (r.remaining() != 248) return false;
    const BytesView block = r.rest();
    (v.*member).assign(block.begin(), std::find(block.begin(), block.end(), 0));
    return r.skip(248);
  }
};
template <typename T>
constexpr Name248<T> name248(std::string T::*member) { return {member}; }

/// The legacy PIN: a length byte from 1 to 16, then 16 zero-padded bytes.
template <typename T>
struct Pin {
  crypto::PinCode T::*member;
  void put(const T& v, ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>((v.*member).size(), 16)));
    put_padded(w, v.*member, 16, 16);
  }
  bool get(T& v, ByteReader& r) const {
    const auto n = r.u8();
    const auto padded = r.array<16>();
    if (!n || !padded || *n == 0 || *n > 16) return false;
    (v.*member).assign(padded->begin(), padded->begin() + *n);
    return true;
  }
};
template <typename T>
constexpr Pin<T> pin(crypto::PinCode T::*member) { return {member}; }

/// The 240-byte extended inquiry response block, which must fill exactly
/// the rest of the parameters. The encoder writes one Complete Local Name
/// (0x09) structure of at most 238 name bytes; the decoder reads the first.
template <typename T>
struct EirName {
  std::string T::*member;
  void put(const T& v, ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>((v.*member).size(), 238) + 1)).u8(0x09);
    put_padded(w, v.*member, 238, 238);
  }
  bool get(T& v, ByteReader& r) const {
    if (r.remaining() != 240) return false;
    const BytesView eir = r.rest();
    // Structures are length | type | data; a zero length ends the block.
    for (std::size_t offset = 0; offset < eir.size();) {
      const std::size_t length = eir[offset];
      if (length == 0 || offset + 1 + length > eir.size()) break;
      if (eir[offset + 1] == 0x09) {
        (v.*member).assign(eir.begin() + static_cast<std::ptrdiff_t>(offset) + 2,
                           eir.begin() + static_cast<std::ptrdiff_t>(offset + 1 + length));
        break;
      }
      offset += 1 + length;
    }
    return r.skip(240);
  }
};
template <typename T>
constexpr EirName<T> eir_name(std::string T::*member) { return {member}; }

/// An open tail: every remaining byte (Command_Complete's return parameters).
template <typename T>
struct Tail {
  Bytes T::*member;
  void put(const T& v, ByteWriter& w) const { w.raw(v.*member); }
  bool get(T& v, ByteReader& r) const {
    v.*member = to_bytes(r.rest());
    return r.skip(r.remaining());
  }
};
template <typename T>
constexpr Tail<T> tail(Bytes T::*member) { return {member}; }

/// An elliptic-curve point: a width byte of 24 (P-192) or 32 (P-256), then
/// the x and y coordinates at that width.
template <typename T>
struct EccPoint {
  Bytes T::*x;
  Bytes T::*y;
  void put(const T& v, ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>((v.*x).size())).raw(v.*x).raw(v.*y);
  }
  bool get(T& v, ByteReader& r) const {
    const auto width = r.u8();
    if (!width || (*width != 24 && *width != 32)) return false;
    auto x_bytes = r.bytes(*width);
    auto y_bytes = r.bytes(*width);
    if (!x_bytes || !y_bytes) return false;
    v.*x = std::move(*x_bytes);
    v.*y = std::move(*y_bytes);
    return true;
  }
};
template <typename T>
constexpr EccPoint<T> ecc_point(Bytes T::*x, Bytes T::*y) { return {x, y}; }

// --- the derived codec -------------------------------------------------------

/// The parameter block (HCI) or payload (LMP) of `value`.
template <typename T>
[[nodiscard]] Bytes encode(const T& value) {
  ByteWriter w;
  std::apply([&](const auto&... field) { (field.put(value, w), ...); }, T::kFields);
  return std::move(w).take();
}

/// Parse a parameter block or payload; nullopt if any field rejects.
template <typename T>
[[nodiscard]] std::optional<T> decode(BytesView params) {
  ByteReader r(params);
  T value{};
  const bool ok =
      std::apply([&](const auto&... field) { return (field.get(value, r) && ...); }, T::kFields);
  if (!ok) return std::nullopt;
  return value;
}

template <typename F>
inline constexpr bool kIsTail = false;
template <typename T>
inline constexpr bool kIsTail<Tail<T>> = true;

/// True when a field claims every remaining byte: such a PDU accepts its
/// own strict prefixes and absorbs padding into that field.
template <typename T>
inline constexpr bool kOpenTail = std::apply(
    [](const auto&... field) { return (kIsTail<std::decay_t<decltype(field)>> || ...); },
    T::kFields);

}  // namespace blap::pdu

namespace blap::hci {

/// An HCI command PDU: one that names its opcode.
template <typename T>
concept Command = requires { T::kOpcode; };

/// The command or event packet carrying `value`.
template <typename T>
[[nodiscard]] HciPacket encode(const T& value) {
  if constexpr (Command<T>) return make_command(T::kOpcode, pdu::encode(value));
  else return make_event(T::kEventCode, pdu::encode(value));
}

}  // namespace blap::hci
