#include "analytics/fleet.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "analytics/mapped_file.hpp"
#include "campaign/campaign.hpp"
#include "common/log.hpp"

namespace blap::analytics {
namespace {

void append_double(std::string& out, double v) { append_fmt(out, "%.6f", v); }

std::string base_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool is_header_fault(const hci::SnoopFault& fault) {
  switch (fault.error) {
    case hci::SnoopError::kTruncatedFileHeader:
    case hci::SnoopError::kBadMagic:
    case hci::SnoopError::kBadVersion:
    case hci::SnoopError::kBadDatalink:
      return true;
    default:
      return false;
  }
}

// --- labels.jsonl micro-parser ---------------------------------------------
// The manifest is machine-written (corpus.cpp / campaign_sweep), so the
// parser accepts exactly that shape: one object per line with a "file"
// string and a "labels" string array. Any other shape fails the whole load —
// a silently half-read manifest would corrupt the precision/recall table.

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

std::optional<std::string> read_json_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') return std::nullopt;
  std::string out;
  for (++i; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      ++i;
      return out;
    }
    if (c == '\\') {
      if (++i >= s.size()) return std::nullopt;
      switch (s[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default: return std::nullopt;  // \uXXXX etc.: not emitted by our writer
      }
      continue;
    }
    out += c;
  }
  return std::nullopt;  // unterminated
}

/// Position just past `"key":`, or nullopt.
std::optional<std::size_t> after_key(std::string_view s, std::string_view key) {
  std::string needle(1, '"');
  needle.append(key).push_back('"');
  const std::size_t at = s.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  skip_ws(s, i);
  if (i >= s.size() || s[i] != ':') return std::nullopt;
  ++i;
  skip_ws(s, i);
  return i;
}

bool parse_label_line(std::string_view line, LabelMap& out) {
  auto file_at = after_key(line, "file");
  if (!file_at) return false;
  std::size_t i = *file_at;
  auto file = read_json_string(line, i);
  if (!file || file->empty()) return false;
  auto labels_at = after_key(line, "labels");
  if (!labels_at) return false;
  i = *labels_at;
  if (i >= line.size() || line[i] != '[') return false;
  ++i;
  std::set<std::string> labels;
  skip_ws(line, i);
  if (i < line.size() && line[i] == ']') {
    out[*file] = std::move(labels);
    return true;
  }
  for (;;) {
    skip_ws(line, i);
    auto label = read_json_string(line, i);
    if (!label) return false;
    labels.insert(std::move(*label));
    skip_ws(line, i);
    if (i >= line.size()) return false;
    if (line[i] == ']') break;
    if (line[i] != ',') return false;
    ++i;
  }
  out[*file] = std::move(labels);
  return true;
}

}  // namespace

std::optional<LabelMap> load_labels(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  LabelMap out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!parse_label_line(line, out)) return std::nullopt;
  }
  return out;
}

double DetectorScore::precision() const {
  const std::size_t denom = tp + fp;
  return denom == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(denom);
}

double DetectorScore::recall() const {
  const std::size_t denom = tp + fn;
  return denom == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(denom);
}

FileReport analyze_file(const std::string& path,
                        std::vector<std::unique_ptr<Detector>>& detectors) {
  FileReport report;
  report.path = path;
  report.name = base_name(path);
  auto file = MappedFile::open(path);
  if (!file) return report;
  report.opened = true;
  report.bytes = file->size();
  hci::SnoopFault header_fault;
  auto cursor = hci::SnoopCursor::open(file->view(), &header_fault);
  if (!cursor) {
    report.fault = header_fault;
    return report;
  }
  while (auto view = cursor->next()) {
    ++report.records;
    if (view->payload_truncated()) ++report.truncated_payloads;
    const RecordCtx ctx = RecordCtx::from_view(*view);
    ++report.records_by_type[ctx.type ? static_cast<std::size_t>(*ctx.type) : 0];
    for (auto& detector : detectors) detector->on_record(ctx);
  }
  for (auto& detector : detectors) detector->finish(report.findings);
  // Stable by frame: equal frames keep the fixed detector order.
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) { return a.frame < b.frame; });
  report.fault = cursor->fault();
  return report;
}

FleetReport analyze_files(std::vector<std::string> paths, const FleetConfig& config,
                          const LabelMap* labels) {
  std::sort(paths.begin(), paths.end(), [](const std::string& a, const std::string& b) {
    const std::string an = base_name(a);
    const std::string bn = base_name(b);
    return an != bn ? an < bn : a < b;
  });

  std::vector<FileReport> slots(paths.size());
  campaign::parallel_indexed(paths.size(), config.jobs, [&] {
    // One detector set per worker, reused file to file (finish() resets).
    return [&, detectors = make_default_detectors(config.detectors)](std::size_t i) mutable {
      slots[i] = analyze_file(paths[i], detectors);
    };
  });

  FleetReport report;
  for (const auto& name : default_detector_names())
    report.findings_per_detector[name] = 0;
  std::uint64_t opened = 0, faulted = 0, truncated = 0;
  std::array<std::uint64_t, 5> by_type{};
  for (const auto& file : slots) {
    if (!file.opened || is_header_fault(file.fault)) {
      ++report.files_failed;
    } else {
      ++report.files_scanned;
    }
    opened += file.opened;
    faulted += file.opened && !file.fault.ok();
    report.bytes_total += file.bytes;
    report.records_total += file.records;
    truncated += file.truncated_payloads;
    for (std::size_t t = 0; t < by_type.size(); ++t) by_type[t] += file.records_by_type[t];
    for (const auto& finding : file.findings) {
      ++report.findings_total;
      ++report.findings_per_detector[finding.detector];
    }
  }
  // The fleet counters, each key named here only. A key is written when its
  // count is nonzero, and snoop.bytes whenever a file opened (0-byte ones too).
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"snoop.files.unreadable", slots.size() - opened},
      {"snoop.files", opened},
      {"snoop.files.faulted", faulted},
      {"snoop.records", report.records_total},
      {"snoop.records.truncated_payload", truncated},
      {"snoop.records.unknown", by_type[0]},
      {"snoop.records.cmd", by_type[static_cast<std::size_t>(hci::PacketType::kCommand)]},
      {"snoop.records.acl", by_type[static_cast<std::size_t>(hci::PacketType::kAclData)]},
      {"snoop.records.sco", by_type[static_cast<std::size_t>(hci::PacketType::kScoData)]},
      {"snoop.records.evt", by_type[static_cast<std::size_t>(hci::PacketType::kEvent)]}};
  for (const auto& [key, count] : counters)
    if (count > 0) report.metrics.counters.emplace(key, count);
  if (opened > 0) report.metrics.counters.emplace("snoop.bytes", report.bytes_total);
  for (const auto& [name, count] : report.findings_per_detector)
    if (count > 0) report.metrics.counters.emplace("detect." + name, count);
  report.files = std::move(slots);

  if (labels != nullptr) {
    report.scored = true;
    for (const auto& name : default_detector_names()) report.scores[name];
    for (const auto& file : report.files) {
      const auto labelled = labels->find(file.name);
      for (auto& [detector, score] : report.scores) {
        const bool predicted =
            std::any_of(file.findings.begin(), file.findings.end(),
                        [&](const Finding& f) { return f.detector == detector; });
        const bool actual =
            labelled != labels->end() && labelled->second.count(detector) > 0;
        if (predicted && actual) ++score.tp;
        else if (predicted && !actual) ++score.fp;
        else if (!predicted && actual) ++score.fn;
        else ++score.tn;
      }
    }
  }
  return report;
}

std::vector<std::string> list_snoop_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".btsnoop") out.push_back(p.string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

FleetReport analyze_tree(const std::string& dir, const FleetConfig& config) {
  const auto labels = load_labels(dir + "/labels.jsonl");
  return analyze_files(list_snoop_files(dir), config, labels ? &*labels : nullptr);
}

std::string FleetReport::to_json() const {
  std::string out;
  out.reserve(1024 + files.size() * 128);
  out += "{\n";
  out += "  \"report\": \"fleet_snoop_analytics\",\n";
  append_fmt(out, "  \"files_scanned\": %zu,\n", files_scanned);
  append_fmt(out, "  \"files_failed\": %zu,\n", files_failed);
  append_fmt(out, "  \"bytes_total\": %llu,\n",
             static_cast<unsigned long long>(bytes_total));
  append_fmt(out, "  \"records_total\": %llu,\n",
             static_cast<unsigned long long>(records_total));
  append_fmt(out, "  \"findings_total\": %zu,\n", findings_total);
  out += "  \"findings_per_detector\": {";
  bool first = true;
  for (const auto& [name, count] : findings_per_detector) {
    if (!std::exchange(first, false)) out += ", ";
    append_fmt(out, "\"%s\": %zu", name.c_str(), count);
  }
  out += "},\n";
  if (scored) {
    out += "  \"scores\": {\n";
    first = true;
    for (const auto& [name, score] : scores) {
      if (!std::exchange(first, false)) out += ",\n";
      append_fmt(out, "    \"%s\": {\"tp\": %zu, \"fp\": %zu, \"fn\": %zu, \"tn\": %zu",
                 name.c_str(), score.tp, score.fp, score.fn, score.tn);
      out += ", \"precision\": ";
      append_double(out, score.precision());
      out += ", \"recall\": ";
      append_double(out, score.recall());
      out += "}";
    }
    out += "\n  },\n";
  }
  out += "  \"files\": [\n";
  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileReport& file = files[i];
    out += "    {";
    append_fmt(out, "\"name\": \"%s\", ", obs::json_escape(file.name).c_str());
    append_fmt(out, "\"opened\": %s, ", file.opened ? "true" : "false");
    append_fmt(out, "\"bytes\": %zu, \"records\": %zu", file.bytes, file.records);
    if (!file.fault.ok())
      append_fmt(out, ", \"fault\": \"%s\"", obs::json_escape(file.fault.describe()).c_str());
    if (file.findings.empty()) {
      out += ", \"findings\": []";
    } else {
      out += ", \"findings\": [\n";
      for (std::size_t j = 0; j < file.findings.size(); ++j) {
        const Finding& f = file.findings[j];
        append_fmt(out, "      {\"detector\": \"%s\", \"frame\": %zu, \"ts_us\": %llu, ",
                   f.detector.c_str(), f.frame,
                   static_cast<unsigned long long>(f.ts_us));
        append_fmt(out, "\"peer\": \"%s\", \"detail\": \"%s\"}",
                   f.peer.to_string().c_str(), obs::json_escape(f.detail).c_str());
        out += (j + 1 < file.findings.size()) ? ",\n" : "\n    ";
      }
      out += "]";
    }
    out += (i + 1 < files.size()) ? "},\n" : "}\n";
  }
  out += "  ],\n";
  out += "  \"metrics\": ";
  out += metrics.to_json("  ");
  out += "\n}\n";
  return out;
}

}  // namespace blap::analytics
