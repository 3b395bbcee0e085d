// snoop.hpp — the btsnoop HCI dump format (RFC 1761 "snoop", datalink 1002).
//
// The "HCI dump" the paper exploits is a file in this exact format: Android's
// 'Bluetooth HCI snoop log' and BlueZ's hcidump both emit it. BLAP both
// writes it (the host's dump tap) and parses it (the attacker's analyzer), so
// the link key extraction attack operates on the same on-disk artifact a real
// attacker would pull out of an Android bug report.
//
// Layout (all header/record integers big-endian):
//   file header : 8-byte id "btsnoop\0" | u32 version=1 | u32 datalink=1002
//   each record : u32 orig_len | u32 incl_len | u32 flags | u32 drops |
//                 u64 timestamp (us since 0 AD) | packet bytes (H4 framed)
//   flags       : bit0 = direction (0 sent/host→controller, 1 received)
//                 bit1 = 1 for command/event channel
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/scheduler.hpp"
#include "common/state_io.hpp"
#include "hci/packets.hpp"

namespace blap::hci {

/// Offset between the btsnoop epoch (0 AD) and the Unix epoch, microseconds.
inline constexpr std::uint64_t kSnoopEpochOffsetUs = 0x00DCDDB30F2F8000ULL;

/// Datalink type for H4-framed HCI (type byte included in packet data).
inline constexpr std::uint32_t kDatalinkHciUart = 1002;

/// Hard ceiling on a single record's included length. The largest legal H4
/// frame (ACL header + 64 KiB payload) is far below this; anything bigger is
/// a corrupt length field, and honoring it would make a hostile capture file
/// drive gigabyte allocations in the fleet reader.
inline constexpr std::uint32_t kMaxSnoopRecordBytes = 1u << 20;

/// Why a snoop parse stopped early. The fleet analytics engine meets corrupt
/// captures at scale, so every malformed shape maps to a typed error with
/// the byte offset where the stream went wrong — never a throw, never an
/// over-read.
enum class SnoopError : std::uint8_t {
  kNone = 0,
  kTruncatedFileHeader,  // fewer than the 16 file-header bytes
  kBadMagic,             // id != "btsnoop\0"
  kBadVersion,           // version != 1
  kBadDatalink,          // datalink != 1002 (H4 with type byte)
  kLengthMismatch,       // incl_len > orig_len — no writer produces this
  kOversizedRecord,      // incl_len > kMaxSnoopRecordBytes
  kTruncatedRecord,      // stream ends inside a record header or payload
};

[[nodiscard]] const char* to_string(SnoopError error);

/// A parse diagnosis: what went wrong and where. `byte_offset` points at the
/// start of the offending field (header faults) or the offending record
/// (record faults), so a corrupt capture can be located with one hexdump.
struct SnoopFault {
  SnoopError error = SnoopError::kNone;
  std::size_t byte_offset = 0;

  [[nodiscard]] bool ok() const { return error == SnoopError::kNone; }
  /// "truncated record at byte 1234" — the stable report form.
  [[nodiscard]] std::string describe() const;
};

/// One record of a btsnoop stream, viewed in place. `wire` aliases the
/// parsed buffer — zero copies, valid only while that buffer lives.
struct SnoopRecordView {
  std::size_t index = 0;        // 0-based record position in the stream
  std::size_t byte_offset = 0;  // offset of the record header in the stream
  SimTime timestamp_us = 0;     // epoch offset already removed
  std::uint32_t orig_len = 0;
  std::uint32_t flags = 0;
  Direction direction = Direction::kHostToController;
  BytesView wire;  // H4-framed bytes: type indicator + payload

  /// True when the dump truncated this record (§VII-A header-only filter).
  [[nodiscard]] bool payload_truncated() const { return orig_len > wire.size(); }
};

/// Streaming zero-copy iteration over a btsnoop byte stream. This is the
/// single record-walk loop in the tree: SnoopLog::parse, the snoop_inspector
/// CLI and the fleet analytics engine all drive it. Unlike SnoopLog::parse
/// it allocates nothing per record, so a mmap'd capture file is scanned at
/// memory bandwidth.
class SnoopCursor {
 public:
  /// Validate the 16-byte file header. On failure returns nullopt and, when
  /// `fault` is non-null, reports which header field was bad.
  [[nodiscard]] static std::optional<SnoopCursor> open(BytesView data,
                                                      SnoopFault* fault = nullptr);

  /// The next record, or nullopt at end-of-stream *and* on a malformed
  /// record. Distinguish via fault(): ok() means the stream ended cleanly.
  [[nodiscard]] std::optional<SnoopRecordView> next();

  /// The first malformed shape met, if any. kTruncatedRecord is the one a
  /// dump cut off mid-write leaves behind; tolerant callers drop the tail.
  [[nodiscard]] const SnoopFault& fault() const { return fault_; }
  [[nodiscard]] std::size_t records_read() const { return index_; }
  /// Current read position (bytes consumed so far).
  [[nodiscard]] std::size_t offset() const { return pos_; }

 private:
  explicit SnoopCursor(BytesView data) : data_(data) {}

  BytesView data_;
  std::size_t pos_ = 16;  // past the validated file header
  std::size_t index_ = 0;
  SnoopFault fault_;
};

struct SnoopRecord {
  SimTime timestamp_us = 0;  // simulation time; serialized with epoch offset
  Direction direction = Direction::kHostToController;
  HciPacket packet;
  /// True when the dump truncated the payload (mitigation §VII-A logs only
  /// the header of key-bearing packets); orig_len then exceeds incl_len.
  std::uint32_t original_length = 0;  // 0 = same as packet size

  [[nodiscard]] std::uint32_t flags() const {
    std::uint32_t f = (direction == Direction::kControllerToHost) ? 1u : 0u;
    if (packet.type == PacketType::kCommand || packet.type == PacketType::kEvent) f |= 2u;
    return f;
  }
};

/// An in-memory HCI dump: the log a device's snoop tap accumulates.
class SnoopLog {
 public:
  /// A record filter installed before logging. Returning std::nullopt drops
  /// the record entirely; returning a modified record logs the modification.
  /// This is the hook the §VII-A mitigation uses to redact link keys.
  using Filter = std::function<std::optional<SnoopRecord>(SnoopRecord)>;

  SnoopLog() = default;

  void set_filter(Filter filter) { filter_ = std::move(filter); }

  /// Append a record (through the filter, if any).
  void append(SnoopRecord record);

  [[nodiscard]] const std::vector<SnoopRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// Serialize to the btsnoop on-disk format.
  [[nodiscard]] Bytes serialize() const;

  /// Checked parse of a btsnoop byte stream. `log` is engaged unless the
  /// 16-byte file header itself was bad; `fault` names the first malformed
  /// shape met (kNone for a fully clean stream) and the records parsed up to
  /// that point are kept. Records whose H4 type byte is unknown are skipped,
  /// not faulted — real captures contain vendor packet types.
  /// (Defined after the class: it holds an optional of the still-incomplete
  /// SnoopLog.)
  struct ParseResult;
  [[nodiscard]] static ParseResult parse_checked(BytesView data);

  /// Tolerant parse: drops a truncated final record (as a dump cut off
  /// mid-write would be) and the malformed tail of a corrupt capture.
  /// Returns nullopt only for a bad file header (magic, version, datalink).
  [[nodiscard]] static std::optional<SnoopLog> parse(BytesView data);

  /// Write/read convenience over files.
  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] static std::optional<SnoopLog> load(const std::string& path);

  /// Render as the frame table of the paper's Fig. 12 (Fra/Type/Opcode/
  /// Command/Event/Status columns).
  [[nodiscard]] std::string format_table() const;

  /// Snapshot support. Records round-trip field by field — serialize()/
  /// parse() would lose original_length==0 distinctions — and a load
  /// bypasses the filter (the records were already filtered when first
  /// appended). A kRewind restore also clears a filter installed after a
  /// filter-free capture; a capture-time filter cannot be reconstructed and
  /// is left in place.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);

 private:
  std::vector<SnoopRecord> records_;
  Filter filter_;
};

struct SnoopLog::ParseResult {
  std::optional<SnoopLog> log;
  SnoopFault fault;
  /// True when the fault is the mid-write-truncation shape (stream ended
  /// inside the final record), which tolerant callers silently drop.
  [[nodiscard]] bool truncated_tail() const {
    return fault.error == SnoopError::kTruncatedRecord;
  }
};

}  // namespace blap::hci
