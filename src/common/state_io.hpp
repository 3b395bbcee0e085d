// state_io.hpp — versioned byte serialization for simulation snapshots.
//
// StateWriter/StateReader are the primitives every component's
// save_state()/load_state() pair is written against. The format is explicit
// and boring on purpose: fixed little-endian integers, length-prefixed byte
// strings, and tagged sections with a byte count, so that
//   * a snapshot is a pure function of the logical simulation state (no
//     pointers, no padding, no hash-order),
//   * a reader can verify it is looking at the section it expects and
//     reject truncated or mismatched input without UB, and
//   * the top-level version field gates any future layout change.
//
// Error model: no exceptions. A reader that runs out of bytes or hits a tag
// mismatch sets a sticky failure flag and every subsequent read returns a
// zero value; callers check ok() once at the end of a load. The first
// failure's message sticks, and the reader's own failures name the byte
// offset they were found at. Writers cannot fail.
//
// Restore cost: a fork restores the same snapshot onto the same simulation
// many times, so the reader does one bounds check per value, and str(),
// bytes(), read_vector() and read_map() overwrite the storage a component
// already holds instead of building new storage.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

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

/// Four-character section tag packed into a u32 ("SCHD", "CTRL", ...).
constexpr std::uint32_t tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

class StateWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xFF));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xFFFF));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFULL));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Length-prefixed byte string.
  void bytes(BytesView v) {
    u64(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
  }
  void str(const std::string& v) {
    bytes(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
  }
  template <std::size_t N>
  void fixed(const std::array<std::uint8_t, N>& v) {
    out_.insert(out_.end(), v.begin(), v.end());
  }

  /// Open a tagged section; returns a token to pass to end_section. Sections
  /// may nest. The byte count is patched in when the section closes, so a
  /// reader can skip sections it does not understand.
  std::size_t begin_section(std::uint32_t section_tag) {
    u32(section_tag);
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
  std::vector<std::uint8_t> out_;
};

class StateReader {
 public:
  explicit StateReader(BytesView data) : data_(data) {}

  [[nodiscard]] bool ok() const { return !failed_; }
  /// Force the reader into the failed state (semantic validation errors).
  void fail(const std::string& why) {
    if (!failed_) error_ = why;
    failed_ = true;
  }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Bytes consumed so far, i.e. the offset the next read starts at.
  [[nodiscard]] std::size_t offset() const { return pos_; }

  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// Length-prefixed byte strings overwrite `out`, reusing its capacity, so
  /// a restore onto live state allocates only where a value outgrows what
  /// it replaces. `out` is cleared on failure.
  void bytes(Bytes& out) {
    const BytesView v = counted();
    out.assign(v.begin(), v.end());
  }
  void str(std::string& out) {
    const BytesView v = counted();
    out.assign(reinterpret_cast<const char*>(v.data()), v.size());
  }
  template <std::size_t N>
  std::array<std::uint8_t, N> fixed() {
    std::array<std::uint8_t, N> out{};
    if (!need(N)) return out;
    std::memcpy(out.data(), data_.data() + pos_, N);
    pos_ += N;
    return out;
  }

  /// Refill a sequence container from a u64 count and that many elements.
  /// `read_one(element)` decodes onto the element already at that position
  /// (reusing its storage) or onto a default-constructed one appended, so
  /// it must assign every field a fresh element would hold. The container
  /// grows one element per read and is cut to the decoded length at the
  /// end; it is never reserved from the count, which is untrusted input.
  template <typename Seq, typename ReadOne>
  void read_vector(Seq& out, ReadOne&& read_one) {
    const std::uint64_t count = u64();
    std::size_t n = 0;
    for (; n < count && ok(); ++n) {
      if (n == out.size()) out.emplace_back();
      read_one(out[n]);
    }
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(n), out.end());
  }

  /// Refill an ordered map the same way, reusing its nodes in key order:
  /// `read_one(key, value)` decodes into a node extracted from the old
  /// contents, or a default one once they run out. A duplicate key keeps
  /// the first value (emplace) or, with `last_wins`, the last (operator[]).
  template <typename Map, typename ReadOne>
  void read_map(Map& out, bool last_wins, ReadOne&& read_one) {
    Map spare;
    spare.swap(out);
    const std::uint64_t count = u64();
    for (std::uint64_t i = 0; i < count && ok(); ++i) {
      if (spare.empty()) spare.try_emplace(typename Map::key_type{});
      auto node = spare.extract(spare.begin());
      read_one(node.key(), node.mapped());
      auto placed = out.insert(std::move(node));
      if (!placed.inserted && last_wins)
        placed.position->second = std::move(placed.node.mapped());
    }
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
  /// The next length-prefixed byte run, viewed in place; empty on failure.
  BytesView counted() {
    const std::uint64_t n = u64();
    if (!need(n)) return {};
    const BytesView v = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += v.size();
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace blap::state
