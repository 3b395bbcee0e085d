#include "hci/snoop.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/log.hpp"
#include "hci/events.hpp"

namespace blap::hci {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'b', 't', 's', 'n', 'o', 'o', 'p', '\0'};

std::uint32_t read_u32be(BytesView data, std::size_t at) {
  return (static_cast<std::uint32_t>(data[at]) << 24) |
         (static_cast<std::uint32_t>(data[at + 1]) << 16) |
         (static_cast<std::uint32_t>(data[at + 2]) << 8) |
         static_cast<std::uint32_t>(data[at + 3]);
}

std::uint64_t read_u64be(BytesView data, std::size_t at) {
  return (static_cast<std::uint64_t>(read_u32be(data, at)) << 32) |
         read_u32be(data, at + 4);
}

}  // namespace

const char* to_string(SnoopError error) {
  switch (error) {
    case SnoopError::kNone: return "ok";
    case SnoopError::kTruncatedFileHeader: return "truncated file header";
    case SnoopError::kBadMagic: return "bad magic";
    case SnoopError::kBadVersion: return "unsupported version";
    case SnoopError::kBadDatalink: return "unsupported datalink";
    case SnoopError::kLengthMismatch: return "incl_len exceeds orig_len";
    case SnoopError::kOversizedRecord: return "implausible record length";
    case SnoopError::kTruncatedRecord: return "truncated record";
  }
  return "?";
}

std::string SnoopFault::describe() const {
  return strfmt("%s at byte %zu", to_string(error), byte_offset);
}

std::optional<SnoopCursor> SnoopCursor::open(BytesView data, SnoopFault* fault) {
  auto fail = [&](SnoopError error, std::size_t offset) -> std::optional<SnoopCursor> {
    if (fault != nullptr) *fault = SnoopFault{error, offset};
    return std::nullopt;
  };
  if (data.size() < 16) return fail(SnoopError::kTruncatedFileHeader, data.size());
  if (!std::equal(kMagic.begin(), kMagic.end(), data.begin()))
    return fail(SnoopError::kBadMagic, 0);
  if (read_u32be(data, 8) != 1) return fail(SnoopError::kBadVersion, 8);
  if (read_u32be(data, 12) != kDatalinkHciUart) return fail(SnoopError::kBadDatalink, 12);
  if (fault != nullptr) *fault = SnoopFault{};
  return SnoopCursor(data);
}

std::optional<SnoopRecordView> SnoopCursor::next() {
  if (!fault_.ok()) return std::nullopt;  // faults are sticky
  if (pos_ == data_.size()) return std::nullopt;
  const std::size_t at = pos_;
  if (data_.size() - at < 24) {
    fault_ = SnoopFault{SnoopError::kTruncatedRecord, at};
    return std::nullopt;
  }
  const std::uint32_t orig_len = read_u32be(data_, at);
  const std::uint32_t incl_len = read_u32be(data_, at + 4);
  if (incl_len > orig_len) {
    fault_ = SnoopFault{SnoopError::kLengthMismatch, at};
    return std::nullopt;
  }
  if (incl_len > kMaxSnoopRecordBytes) {
    fault_ = SnoopFault{SnoopError::kOversizedRecord, at};
    return std::nullopt;
  }
  if (incl_len > data_.size() - at - 24) {
    fault_ = SnoopFault{SnoopError::kTruncatedRecord, at};
    return std::nullopt;
  }
  SnoopRecordView view;
  view.index = index_++;
  view.byte_offset = at;
  view.orig_len = orig_len;
  view.flags = read_u32be(data_, at + 8);
  const std::uint64_t raw_ts = read_u64be(data_, at + 16);
  view.timestamp_us = raw_ts >= kSnoopEpochOffsetUs ? raw_ts - kSnoopEpochOffsetUs : 0;
  view.direction =
      (view.flags & 1) ? Direction::kControllerToHost : Direction::kHostToController;
  view.wire = data_.subspan(at + 24, incl_len);
  pos_ = at + 24 + incl_len;
  return view;
}

void SnoopLog::append(SnoopRecord record) {
  if (record.original_length == 0)
    record.original_length = static_cast<std::uint32_t>(record.packet.to_wire().size());
  if (filter_) {
    auto filtered = filter_(std::move(record));
    if (!filtered) return;
    records_.push_back(std::move(*filtered));
    return;
  }
  records_.push_back(std::move(record));
}

Bytes SnoopLog::serialize() const {
  ByteWriter w;
  w.raw(kMagic);
  w.u32be(1);                 // version
  w.u32be(kDatalinkHciUart);  // datalink: H4 with type byte
  for (const auto& rec : records_) {
    const Bytes wire = rec.packet.to_wire();
    w.u32be(rec.original_length);
    w.u32be(static_cast<std::uint32_t>(wire.size()));
    w.u32be(rec.flags());
    w.u32be(0);  // cumulative drops
    w.u64be(rec.timestamp_us + kSnoopEpochOffsetUs);
    w.raw(wire);
  }
  return std::move(w).take();
}

SnoopLog::ParseResult SnoopLog::parse_checked(BytesView data) {
  ParseResult result;
  auto cursor = SnoopCursor::open(data, &result.fault);
  if (!cursor) return result;
  SnoopLog log;
  while (auto view = cursor->next()) {
    auto packet = HciPacket::from_wire(view->wire);
    if (!packet) continue;  // unknown packet type byte — skip record
    SnoopRecord rec;
    rec.timestamp_us = view->timestamp_us;
    rec.direction = view->direction;
    rec.packet = std::move(*packet);
    rec.original_length = view->orig_len;
    log.records_.push_back(std::move(rec));
  }
  result.fault = cursor->fault();
  result.log = std::move(log);
  return result;
}

std::optional<SnoopLog> SnoopLog::parse(BytesView data) {
  return parse_checked(data).log;
}

bool SnoopLog::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const Bytes data = serialize();
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

std::optional<SnoopLog> SnoopLog::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return parse(data);
}

std::string SnoopLog::format_table() const {
  std::string out =
      "Fra  Type     Opcode Command                                    Event"
      "                              Handle  Status\n";
  std::size_t frame = 0;
  for (const auto& rec : records_) {
    ++frame;
    std::string type;
    std::string command;
    std::string event;
    std::string handle;
    std::string status;
    char opcode_hex[8] = "";
    switch (rec.packet.type) {
      case PacketType::kCommand: {
        type = "Command";
        if (auto op_value = rec.packet.command_opcode()) {
          std::snprintf(opcode_hex, sizeof(opcode_hex), "0x%04x", *op_value);
          command = opcode_name(*op_value);
        }
        if (auto params = rec.packet.command_params()) {
          if (rec.packet.command_opcode() == op::kAuthenticationRequested && params->size() >= 2)
            handle = strfmt("0x%04x", (*params)[0] | ((*params)[1] << 8));
        }
        break;
      }
      case PacketType::kEvent: {
        type = "Event";
        if (auto code = rec.packet.event_code()) {
          event = event_name(*code);
          if (auto params = rec.packet.event_params()) {
            if (*code == ev::kCommandStatus) {
              if (auto evt = CommandStatusEvt::decode(*params)) {
                command = opcode_name(evt->command_opcode);
                status = to_string(evt->status);
                event = "HCI_Command_Status";
              }
            } else if (*code == ev::kConnectionComplete) {
              if (auto evt = ConnectionCompleteEvt::decode(*params)) {
                handle = strfmt("0x%04x", evt->handle);
                status = to_string(evt->status);
              }
            } else if (*code == ev::kAuthenticationComplete) {
              if (auto evt = AuthenticationCompleteEvt::decode(*params)) {
                handle = strfmt("0x%04x", evt->handle);
                status = to_string(evt->status);
              }
            } else if (*code == ev::kCommandComplete) {
              if (auto evt = CommandCompleteEvt::decode(*params)) {
                command = opcode_name(evt->command_opcode);
                if (!evt->return_parameters.empty())
                  status = to_string(static_cast<Status>(evt->return_parameters[0]));
              }
            }
          }
        }
        break;
      }
      case PacketType::kAclData: {
        type = "ACL";
        if (auto h = rec.packet.acl_handle()) handle = strfmt("0x%04x", *h);
        break;
      }
      case PacketType::kScoData: type = "SCO"; break;
    }
    out += strfmt("%-4zu %-8s %-6s %-42s %-34s %-7s %s\n", frame, type.c_str(), opcode_hex,
                  command.c_str(), event.c_str(), handle.c_str(), status.c_str());
  }
  return out;
}

void SnoopLog::save_state(state::StateWriter& w) const {
  w.boolean(static_cast<bool>(filter_));
  w.u64(records_.size());
  for (const SnoopRecord& record : records_) {
    w.u64(record.timestamp_us);
    w.u8(static_cast<std::uint8_t>(record.direction));
    w.u8(static_cast<std::uint8_t>(record.packet.type));
    w.bytes(record.packet.payload);
    w.u32(record.original_length);
  }
}

void SnoopLog::load_state(state::StateReader& r, state::RestoreMode mode) {
  const bool had_filter = r.boolean();
  if (mode == state::RestoreMode::kRewind && !had_filter) filter_ = nullptr;
  r.read_vector(records_, [&r](SnoopRecord& record) {
    record.timestamp_us = r.u64();
    record.direction = static_cast<Direction>(r.u8());
    record.packet.type = static_cast<PacketType>(r.u8());
    r.bytes(record.packet.payload);
    record.original_length = r.u32();
  });
}

}  // namespace blap::hci
