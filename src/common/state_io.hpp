// state_io.hpp — versioned byte serialization for simulation snapshots.
//
// Each snapshot component lists the fields it serializes once, in wire
// order, and derives its save and its load from that list:
//
//   template <state::StateIo Io, state::ConstOnSave<Io> Self>
//   void Component::persist(Io& io, Self& self) {
//     io.field(self.count_);
//     io.seq(self.frames_, [&io](auto& frame) { io.field(frame.payload); });
//     if constexpr (Io::kLoading) { ...load-only work... }
//   }
//
// StateWriter and StateReader offer the same field kinds, and `Self` is
// const exactly on the save path, so a list that mutates what it saves does
// not compile. field() takes integers and enums at their own width (an int
// is 4 bytes, a size_t 8, an int8_t 1), bool, double, std::string and Bytes
// (u64 length, then the bytes), arrays element-wise, BdAddr, Uuid,
// ClassOfDevice, Rng, and components: a static persist(io, self), else a
// persist(io) member pair. opt() writes a std::optional or an owning
// pointer as a presence bool and the value; an absent value resets it.
// seq() writes a vector or deque, map() an ordered map, as a u64 count and
// the elements; an `each` callback names an element's fields. attached()
// writes a callback list as its count, and a kRewind load truncates the
// live list to it. The restore mode travels in the reader; other
// mode-dependent work stays in `if constexpr` blocks.
//
// The format is explicit on purpose — fixed little-endian integers,
// length-prefixed byte strings, tagged sections with a byte count — so a
// snapshot is a pure function of the logical state and truncated or
// mismatched input is rejected without UB. A reader fails sticky: every
// later read returns zero and the first failure's message, naming its byte
// offset, is kept; callers check ok() once after a load. Writers cannot
// fail. A fork restores one snapshot many times, so the reader does one
// bounds check per value, and strings, byte strings, sequences and maps
// refill the storage a component already holds instead of allocating.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bdaddr.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/uuid.hpp"

namespace blap::state {

/// How a component should apply a loaded state.
///
///  * kRewind  — the fork path: the scheduler queue has been cleared, and
///    the component must reset itself *entirely* to the serialized state,
///    clearing any callback-holding residue (pending operations, attached
///    taps beyond the captured count, user-agent pointers). Only valid for
///    snapshots captured at a strict/quiescent point.
///  * kInPlace — the round-trip-test path: the snapshot is being restored
///    onto the very state it was captured from, with the scheduler queue
///    (and its closures) intact. The component overwrites every serialized
///    field and leaves non-serializable members (EventHandles, callbacks)
///    untouched.
enum class RestoreMode : std::uint8_t { kRewind, kInPlace };

/// Which value a map keeps when its input repeats a key.
enum class Duplicates : std::uint8_t { kFirstWins, kLastWins };

/// Four-character section tag packed into a u32 ("SCHD", "CTRL", ...).
constexpr std::uint32_t tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

class StateWriter;
class StateReader;

/// The two sides a field list is instantiated for.
template <class Io>
concept StateIo = std::same_as<Io, StateWriter> || std::same_as<Io, StateReader>;

/// A field list's `Self`: const exactly when it is being saved.
template <class Self, class Io>
concept ConstOnSave = std::is_const_v<Self> != Io::kLoading;

namespace detail {

template <class T>
constexpr bool kStdArray = false;
template <class T, std::size_t N>
constexpr bool kStdArray<std::array<T, N>> = true;
template <class T>
constexpr bool kByteArray = false;
template <std::size_t N>
constexpr bool kByteArray<std::array<std::uint8_t, N>> = true;
template <class T>
constexpr bool kArray = std::is_array_v<T> || kStdArray<T>;

/// The default `each` of seq and opt: the element is one field.
struct OneField {};

template <class Io, class Each, class T>
void visit(Io& io, Each& each, T& element) {
  if constexpr (std::same_as<Each, OneField>) io.field(element);
  else each(element);
}

}  // namespace detail

class StateWriter {
 public:
  static constexpr bool kLoading = false;

  template <class T>
  void field(const T& v) {
    if constexpr (std::same_as<T, bool>) le(static_cast<std::uint8_t>(v));
    else if constexpr (std::is_enum_v<T>) field(static_cast<std::underlying_type_t<T>>(v));
    else if constexpr (std::is_integral_v<T>) le(static_cast<std::make_unsigned_t<T>>(v));
    else if constexpr (std::same_as<T, double>) le(std::bit_cast<std::uint64_t>(v));
    else if constexpr (std::same_as<T, std::string> || std::same_as<T, Bytes>)
      counted(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
    else if constexpr (detail::kByteArray<T>) out_.insert(out_.end(), v.begin(), v.end());
    else if constexpr (detail::kArray<T>) for (const auto& e : v) field(e);
    else if constexpr (std::same_as<T, BdAddr> || std::same_as<T, Uuid>) field(v.bytes());
    else if constexpr (std::same_as<T, ClassOfDevice>) field(v.raw());
    else if constexpr (std::same_as<T, Rng>) field(v.state());
    else if constexpr (requires { T::persist(*this, v); }) T::persist(*this, v);
    else v.persist(*this);
  }
  template <class Holder, class Each = detail::OneField>
  void opt(const Holder& v, Each each = {}) {
    field(static_cast<bool>(v));
    if (v) detail::visit(*this, each, *v);
  }
  template <class Seq, class Each = detail::OneField>
  void seq(const Seq& v, Each each = {}) {
    u64(v.size());
    for (const auto& e : v) detail::visit(*this, each, e);
  }
  template <class Map, class Each>
  void map(const Map& m, Duplicates /*rule*/, Each each) {
    u64(m.size());
    for (const auto& [key, value] : m) each(key, value);
  }
  template <class List>
  void attached(const List& callbacks) { u64(callbacks.size()); }
  /// Counts and roster indices in the hand-written sections.
  void u64(std::uint64_t v) { le(v); }

  /// Open a tagged section; returns a token to pass to end_section. Sections
  /// may nest. The byte count is patched in when the section closes, so a
  /// reader can skip sections it does not understand.
  std::size_t begin_section(std::uint32_t section_tag) {
    field(section_tag);
    const std::size_t at = out_.size();
    u64(0);  // placeholder for the payload length
    return at;
  }
  void end_section(std::size_t token) {
    const std::uint64_t payload = out_.size() - token - 8;
    for (int i = 0; i < 8; ++i)
      out_[token + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((payload >> (8 * i)) & 0xFF);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  template <typename U>
  void le(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void counted(BytesView v) {
    u64(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
  }

  std::vector<std::uint8_t> out_;
};

class StateReader {
 public:
  static constexpr bool kLoading = true;

  explicit StateReader(BytesView data, RestoreMode mode = RestoreMode::kInPlace)
      : data_(data), mode_(mode) {}

  [[nodiscard]] RestoreMode mode() const { return mode_; }
  [[nodiscard]] bool ok() const { return !failed_; }
  /// Force the reader into the failed state (semantic validation errors).
  void fail(const std::string& why) {
    if (!failed_) error_ = why;
    failed_ = true;
  }
  /// Refuse the `width`-byte value just read, naming its offset.
  void refuse(std::size_t width, const std::string& what) {
    fail(what + " at offset " + std::to_string(pos_ - width));
  }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Bytes consumed so far, i.e. the offset the next read starts at.
  [[nodiscard]] std::size_t offset() const { return pos_; }

  // Values for the hand-written sections.
  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }
  template <std::size_t N>
  std::array<std::uint8_t, N> fixed() {
    std::array<std::uint8_t, N> out{};
    if (!need(N)) return out;
    std::memcpy(out.data(), data_.data() + pos_, N);
    pos_ += N;
    return out;
  }

  template <class T>
  void field(T& v) {
    if constexpr (std::same_as<T, bool>) v = boolean();
    else if constexpr (std::is_enum_v<T>) v = static_cast<T>(value<std::underlying_type_t<T>>());
    else if constexpr (std::is_integral_v<T>) v = static_cast<T>(le<std::make_unsigned_t<T>>());
    else if constexpr (std::same_as<T, double>) v = std::bit_cast<double>(u64());
    else if constexpr (std::same_as<T, std::string> || std::same_as<T, Bytes>) refill(v);
    else if constexpr (detail::kByteArray<T>) v = fixed<std::tuple_size_v<T>>();
    else if constexpr (detail::kArray<T>) for (auto& e : v) field(e);
    else if constexpr (std::same_as<T, BdAddr> || std::same_as<T, Uuid>) v = T(fixed<T::kSize>());
    else if constexpr (std::same_as<T, ClassOfDevice>) v = ClassOfDevice(u32());
    else if constexpr (std::same_as<T, Rng>) v.set_state(value<std::array<std::uint64_t, 4>>());
    else if constexpr (requires { T::persist(*this, v); }) T::persist(*this, v);
    else v.persist(*this);
  }
  template <class Holder, class Each = detail::OneField>
  void opt(Holder& v, Each each = {}) {
    if (!boolean()) return v.reset();
    if (!v) {
      if constexpr (requires { v.emplace(); }) v.emplace();
      else v = std::make_unique<typename Holder::element_type>();
    }
    detail::visit(*this, each, *v);
  }

  /// Refill a sequence container from a u64 count and that many elements.
  /// `each` decodes onto the element already at that position (reusing its
  /// storage) or onto a default-constructed one appended, so it must assign
  /// every field a fresh element would hold. The container grows one
  /// element per read and is cut to the decoded length at the end; it is
  /// never reserved from the count, which is untrusted input.
  template <class Seq, class Each = detail::OneField>
  void seq(Seq& out, Each each = {}) {
    const std::uint64_t count = u64();
    std::size_t n = 0;
    for (; n < count && ok(); ++n) {
      if (n == out.size()) out.emplace_back();
      detail::visit(*this, each, out[n]);
    }
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(n), out.end());
  }

  /// Refill an ordered map the same way, reusing its nodes in key order:
  /// `each(key, value)` decodes into a node extracted from the old
  /// contents, or a default one once they run out, and sets its key.
  template <class Map, class Each>
  void map(Map& out, Duplicates rule, Each each) {
    Map spare;
    spare.swap(out);
    const std::uint64_t count = u64();
    for (std::uint64_t i = 0; i < count && ok(); ++i) {
      if (spare.empty()) spare.try_emplace(typename Map::key_type{});
      auto node = spare.extract(spare.begin());
      each(node.key(), node.mapped());
      auto placed = out.insert(std::move(node));
      if (!placed.inserted && rule == Duplicates::kLastWins)
        placed.position->second = std::move(placed.node.mapped());
    }
  }

  template <class List>
  void attached(List& callbacks) {
    const std::uint64_t count = u64();
    if (mode_ == RestoreMode::kRewind && callbacks.size() > count)
      callbacks.resize(static_cast<std::size_t>(count));
  }

  /// Skip `n` raw bytes (structural validation walks that hop over section
  /// payloads without parsing them).
  void skip(std::uint64_t n) {
    if (!need(n)) return;
    pos_ += static_cast<std::size_t>(n);
  }

  /// Read a section header and verify the tag. Returns the payload length
  /// (0 on failure). On tag mismatch the reader fails sticky.
  std::uint64_t expect_section(std::uint32_t section_tag) {
    const std::size_t at = pos_;
    const std::uint32_t got = u32();
    const std::uint64_t len = u64();
    if (failed_) return 0;
    if (got != section_tag) {
      fail("section tag mismatch at offset " + std::to_string(at));
      return 0;
    }
    if (!check(len)) {
      fail("section length exceeds input at offset " + std::to_string(at) + " (length " +
           std::to_string(len) + ", " + std::to_string(remaining()) + " left)");
      return 0;
    }
    return len;
  }

 private:
  [[nodiscard]] bool check(std::uint64_t n) const { return n <= data_.size() - pos_; }
  bool need(std::uint64_t n) {
    if (failed_) return false;
    if (!check(n)) {
      fail("input truncated at offset " + std::to_string(pos_) + " (need " +
           std::to_string(n) + ", " + std::to_string(remaining()) + " left)");
      return false;
    }
    return true;
  }
  /// One bounds check per value, then a little-endian load.
  template <typename T>
  T le() {
    if (!need(sizeof(T))) return 0;
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i)
        v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }
  template <class U>
  U value() {
    U v{};
    field(v);
    return v;
  }
  /// Overwrite a string or byte string with the next length-prefixed run,
  /// reusing its capacity; cleared on failure.
  template <class S>
  void refill(S& out) {
    const BytesView v = counted();
    const auto* first = reinterpret_cast<const typename S::value_type*>(v.data());
    out.assign(first, first + v.size());
  }
  /// The next length-prefixed byte run, viewed in place; empty on failure.
  BytesView counted() {
    const std::uint64_t n = u64();
    if (!need(n)) return {};
    const BytesView v = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += v.size();
    return v;
  }

  BytesView data_;
  RestoreMode mode_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace blap::state
