// snoop_inspector.cpp — the attacker's HCI dump analysis tool as a CLI.
//
//   $ ./snoop_inspector <file.btsnoop>       # analyze an existing dump
//   $ ./snoop_inspector --demo <out.btsnoop> # generate a dump, then analyze
//   $ ./snoop_inspector <file.btsnoop> --trace-out <file.trace.json>
//                                            # ...and convert to Chrome trace
//   $ ./snoop_inspector <file.btsnoop> --jsonl
//                                            # one JSON object per record
//
// Parses an RFC 1761 btsnoop file, prints the frame table, flags every
// key-bearing packet, and extracts the link keys — the exact workflow of
// paper §IV-A against a log pulled from an Android bug report. --trace-out
// re-emits the dump as the same Chrome trace-event JSON the simulator's
// observability layer produces (one lane per direction, key-bearing frames
// as attack-layer instants), so a captured log and a simulated trial can be
// compared side by side in Perfetto. --jsonl streams the capture through
// hci::SnoopCursor (the same zero-copy iterator the fleet analytics engine
// drives) and prints one JSON object per record with the field names the
// FleetReport timelines use ("frame" 1-based, "ts_us"), so a single capture
// can be grepped/jq'd the same way as a blap-snoopd fleet report. Malformed
// input is reported as the typed fault with its byte offset.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "core/device.hpp"
#include "core/snoop_extractor.hpp"
#include "obs/obs.hpp"

namespace {

std::optional<blap::Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return blap::Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

const char* h4_type_name(blap::BytesView wire) {
  using blap::hci::PacketType;
  if (wire.empty()) return "empty";
  switch (static_cast<PacketType>(wire[0])) {
    case PacketType::kCommand: return "cmd";
    case PacketType::kAclData: return "acl";
    case PacketType::kScoData: return "sco";
    case PacketType::kEvent: return "evt";
    default: return "unknown";
  }
}

// One record per line via the streaming cursor: no per-record allocation
// beyond the describe() string, faults reported with their byte offset.
int emit_jsonl(const std::string& path) {
  using namespace blap;
  const auto data = read_file(path);
  if (!data) {
    std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
    return 1;
  }
  hci::SnoopFault fault;
  auto cursor = hci::SnoopCursor::open(*data, &fault);
  if (!cursor) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), fault.describe().c_str());
    return 1;
  }
  while (const auto record = cursor->next()) {
    std::string desc = "unparsed";
    if (const auto packet = hci::HciPacket::from_wire(record->wire))
      desc = packet->describe();
    std::printf("{\"frame\": %zu, \"ts_us\": %llu, \"dir\": \"%s\", \"type\": \"%s\", "
                "\"orig_len\": %u, \"incl_len\": %zu, \"truncated\": %s, \"desc\": \"%s\"}\n",
                record->index + 1, static_cast<unsigned long long>(record->timestamp_us),
                record->direction == hci::Direction::kControllerToHost ? "c2h" : "h2c",
                h4_type_name(record->wire), record->orig_len, record->wire.size(),
                record->payload_truncated() ? "true" : "false",
                obs::json_escape(desc).c_str());
  }
  if (!cursor->fault().ok()) {
    std::fprintf(stderr, "error: %s: %s (after %zu record(s))\n", path.c_str(),
                 cursor->fault().describe().c_str(), cursor->records_read());
    return 1;
  }
  return 0;
}

int export_trace(const blap::hci::SnoopLog& log, const std::string& out_path) {
  using namespace blap;
  obs::TraceRecorder recorder(log.size() + 16);
  const std::uint32_t h2c = recorder.intern_device("host->controller");
  const std::uint32_t c2h = recorder.intern_device("controller->host");
  const std::uint32_t keys = recorder.intern_device("key material");
  // Frames are numbered from 1, as on the key lane and in --jsonl.
  std::size_t frame = 0;
  for (const auto& record : log.records()) {
    const bool to_host = record.direction == hci::Direction::kControllerToHost;
    recorder.instant(record.timestamp_us, to_host ? c2h : h2c, obs::Layer::kHci,
                     record.packet.describe(),
                     strfmt("frame %zu, %zu bytes", ++frame, record.packet.payload.size()));
  }
  for (const auto& key : core::extract_link_keys(log)) {
    recorder.instant(key.timestamp_us, keys, obs::Layer::kAttack, "plaintext_link_key",
                     strfmt("frame %zu (%s): peer %s", key.frame_index, to_string(key.source),
                            key.peer.to_string().c_str()));
  }
  std::ofstream out(out_path);
  out << recorder.to_chrome_json();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::printf("Chrome trace JSON (%zu events) -> %s\n", recorder.size(), out_path.c_str());
  return 0;
}

int analyze(const std::string& path, const std::string& trace_out = {}) {
  using namespace blap;
  const auto data = read_file(path);
  if (!data) {
    std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
    return 1;
  }
  auto result = hci::SnoopLog::parse_checked(*data);
  if (!result.log) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), result.fault.describe().c_str());
    return 1;
  }
  if (!result.fault.ok())
    std::fprintf(stderr, "warning: %s: %s — keeping the %zu record(s) before it\n",
                 path.c_str(), result.fault.describe().c_str(), result.log->size());
  const auto& log = result.log;
  std::printf("%s: %zu records\n\n", path.c_str(), log->size());
  std::printf("%s\n", log->format_table().c_str());
  if (!trace_out.empty()) {
    const int rc = export_trace(*log, trace_out);
    if (rc != 0) return rc;
  }

  const auto keys = blap::core::extract_link_keys(*log);
  if (keys.empty()) {
    std::printf("No link keys found in this dump.\n");
    return 0;
  }
  std::printf("!! %zu LINK KEY%s FOUND IN PLAINTEXT !!\n", keys.size(),
              keys.size() == 1 ? "" : "S");
  for (const auto& key : keys) {
    std::printf("  frame %-4zu %-28s peer %s  key %s\n", key.frame_index,
                to_string(key.source), key.peer.to_string().c_str(),
                blap::crypto::key_to_hex(key.key).c_str());
  }
  return 0;
}

int demo(const std::string& path) {
  using namespace blap;
  using namespace blap::core;
  // Produce a realistic dump: pair, disconnect, reconnect (bonded).
  Simulation sim(3);
  DeviceSpec m_spec;
  m_spec.name = "phone";
  m_spec.address = *BdAddr::parse("48:90:12:34:56:78");
  DeviceSpec c_spec;
  c_spec.name = "headset";
  c_spec.address = *BdAddr::parse("00:1b:7d:da:71:0a");
  c_spec.class_of_device = ClassOfDevice(ClassOfDevice::kHandsFree);
  Device& m = sim.add_device(m_spec);
  Device& c = sim.add_device(c_spec);
  m.host().enable_snoop(true);
  m.host().pair(c.address(), [](hci::Status) {});
  sim.run_for(10 * kSecond);
  m.host().disconnect(c.address());
  sim.run_for(2 * kSecond);
  m.host().pair(c.address(), [](hci::Status) {});
  sim.run_for(10 * kSecond);
  if (!m.host().snoop().save(path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n\n", m.host().snoop().size(), path.c_str());
  return analyze(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--demo") == 0) return demo(argv[2]);
  if (argc == 3 && std::strcmp(argv[2], "--jsonl") == 0) return emit_jsonl(argv[1]);
  if (argc == 3 && std::strcmp(argv[1], "--jsonl") == 0) return emit_jsonl(argv[2]);
  if (argc == 4 && std::strcmp(argv[2], "--trace-out") == 0)
    return analyze(argv[1], argv[3]);
  if (argc == 2) return analyze(argv[1]);
  std::fprintf(stderr,
               "usage: %s <file.btsnoop> [--trace-out <out.trace.json>] [--jsonl]\n"
               "       %s --demo <out.btsnoop>\n",
               argv[0], argv[0]);
  return 2;
}
