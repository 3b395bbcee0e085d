// fleet_report.cpp — prints the FleetReport JSON of a fixed set of fleets.
//
//   $ ./fleet_report > fleet_report.out
//
// The golden_fleet_report ctest compares the output with
// tests/golden/fleet_report.json, so a change to any report byte — a
// per-file field, a finding, a score or a metrics key that appears,
// disappears or counts differently — fails it. The fleets are:
//
//   * snoop_corpus: the labelled captures under tests/snoop_corpus/;
//   * mixed: one capture per shape the scanner must report on — a missing
//     path, a 0-byte file, bad magic, bad version, a truncated last record,
//     an oversized record, an unknown H4 type byte, a §VII-A header-only
//     key record, an SCO record, and clean captures of 64 KiB - 1, 64 KiB
//     and 64 KiB + 1 bytes (either side of MappedFile's read/mmap cut);
//   * empty_file: one 0-byte capture;
//   * missing_path: one path that does not exist.
//
// The output is one JSON object keyed by fleet name. Generated captures are
// written to a fresh temporary directory that is removed on exit; only base
// names reach the report, so the output does not depend on where it is.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analytics/fleet.hpp"
#include "hci/constants.hpp"
#include "hci/snoop.hpp"

namespace {

using namespace blap;
namespace fs = std::filesystem;

constexpr std::size_t kCut = 64 * 1024;

void append(hci::SnoopLog& log, hci::HciPacket packet,
            hci::Direction dir = hci::Direction::kControllerToHost,
            std::uint32_t original_length = 0) {
  hci::SnoopRecord record;
  record.timestamp_us = 1000 + 625 * log.size();
  record.direction = dir;
  record.packet = std::move(packet);
  record.original_length = original_length;
  log.append(std::move(record));
}

hci::HciPacket authentication_requested() {
  ByteWriter w;
  w.u16(0x0001);
  return hci::make_command(hci::op::kAuthenticationRequested, w.data());
}

hci::HciPacket inquiry_complete() {
  ByteWriter w;
  w.u8(0x00);
  return hci::make_event(hci::ev::kInquiryComplete, w.data());
}

/// One command and one event; the base the malformed shapes are cut from.
Bytes clean_capture() {
  hci::SnoopLog log;
  append(log, authentication_requested(), hci::Direction::kHostToController);
  append(log, inquiry_complete());
  return log.serialize();
}

void patch_u32be(Bytes& data, std::size_t at, std::uint32_t value) {
  data[at] = static_cast<std::uint8_t>(value >> 24);
  data[at + 1] = static_cast<std::uint8_t>(value >> 16);
  data[at + 2] = static_cast<std::uint8_t>(value >> 8);
  data[at + 3] = static_cast<std::uint8_t>(value);
}

/// A clean ACL capture of exactly `size` bytes: 1 KiB records, then one
/// record sized to land on `size`.
Bytes capture_of_size(std::size_t size) {
  constexpr std::size_t kRecordOverhead = 24 + 1 + 4;  // snoop + H4 + ACL headers
  constexpr std::size_t kFill = 1024 - kRecordOverhead;
  hci::SnoopLog log;
  std::size_t left = size - 16;
  std::uint8_t fill = 0;
  while (left >= 2 * kRecordOverhead + kFill) {
    append(log, hci::make_acl(0x0001, Bytes(kFill, fill++)), hci::Direction::kHostToController);
    left -= kRecordOverhead + kFill;
  }
  append(log, hci::make_acl(0x0001, Bytes(left - kRecordOverhead, fill)));
  Bytes out = log.serialize();
  if (out.size() != size) {
    std::fprintf(stderr, "fleet_report: built %zu bytes, wanted %zu\n", out.size(), size);
    std::exit(1);
  }
  return out;
}

bool write_file(const fs::path& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = data.empty() || std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}

/// to_json() without its trailing newline; main() joins the fleets.
std::string json(const analytics::FleetReport& report) {
  std::string out = report.to_json();
  out.pop_back();
  return out;
}

}  // namespace

int main() {
  std::string tmpl = (fs::temp_directory_path() / "blap_fleet_report.XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("fleet_report: mkdtemp");
    return 1;
  }
  const fs::path dir = tmpl;

  std::vector<std::pair<std::string, Bytes>> captures;
  captures.emplace_back("empty.btsnoop", Bytes{});
  Bytes bad_magic = clean_capture();
  bad_magic[0] = 'X';
  captures.emplace_back("bad_magic.btsnoop", bad_magic);
  Bytes bad_version = clean_capture();
  patch_u32be(bad_version, 8, 2);
  captures.emplace_back("bad_version.btsnoop", bad_version);
  Bytes truncated = clean_capture();
  truncated.resize(truncated.size() - 3);
  captures.emplace_back("truncated_last.btsnoop", truncated);
  Bytes oversized = clean_capture();
  patch_u32be(oversized, 16, hci::kMaxSnoopRecordBytes + 1);  // first record: orig_len,
  patch_u32be(oversized, 20, hci::kMaxSnoopRecordBytes + 1);  // incl_len
  captures.emplace_back("oversized_record.btsnoop", oversized);
  Bytes unknown_type = clean_capture();
  unknown_type[16 + 24] = 0x7f;  // first record's H4 type byte
  captures.emplace_back("unknown_type.btsnoop", unknown_type);
  {
    // §VII-A header-only filter: the Link_Key_Notification event header is
    // logged, its 23 parameter bytes (BD_ADDR, key, key type) are not.
    hci::SnoopLog log;
    append(log, authentication_requested(), hci::Direction::kHostToController);
    append(log, hci::HciPacket{hci::PacketType::kEvent, Bytes{hci::ev::kLinkKeyNotification, 23}},
           hci::Direction::kControllerToHost, 1 + 2 + 23);
    captures.emplace_back("header_only_key.btsnoop", log.serialize());
  }
  {
    hci::SnoopLog log;
    append(log, hci::HciPacket{hci::PacketType::kScoData, Bytes{0x01, 0x00, 0x04, 1, 2, 3, 4}});
    append(log, inquiry_complete());
    captures.emplace_back("sco.btsnoop", log.serialize());
  }
  captures.emplace_back("cut_minus_1.btsnoop", capture_of_size(kCut - 1));
  captures.emplace_back("cut.btsnoop", capture_of_size(kCut));
  captures.emplace_back("cut_plus_1.btsnoop", capture_of_size(kCut + 1));

  std::vector<std::string> mixed = {(dir / "missing.btsnoop").string()};
  for (const auto& [name, bytes] : captures) {
    if (!write_file(dir / name, bytes)) {
      std::fprintf(stderr, "fleet_report: cannot write %s\n", (dir / name).c_str());
      return 1;
    }
    mixed.push_back((dir / name).string());
  }

  std::string out = "{\n\"snoop_corpus\": " + json(analytics::analyze_tree(BLAP_SNOOP_CORPUS_DIR));
  out += ",\n\"mixed\": " + json(analytics::analyze_files(mixed));
  out += ",\n\"empty_file\": " + json(analytics::analyze_files({(dir / "empty.btsnoop").string()}));
  out += ",\n\"missing_path\": " +
         json(analytics::analyze_files({(dir / "missing.btsnoop").string()}));
  out += "\n}\n";
  std::fputs(out.c_str(), stdout);

  std::error_code ec;
  fs::remove_all(dir, ec);
  return 0;
}
