// fleet.hpp — fleet-scale snoop capture analytics.
//
// The defender's side of BLAP: given thousands of btsnoop captures pulled
// off a device fleet, scan every record through the detector rule set
// (detector.hpp) and produce one deterministic FleetReport — per-detector
// finding counts, a per-capture finding timeline, fleet counters and,
// when a label manifest accompanies the corpus, a precision/recall table
// per detector.
//
// Parallelism runs on campaign::parallel_indexed (campaign.hpp): the file
// list is sorted, each worker scans the indices it claims with its own
// detector set into pre-sized result slots, and aggregation runs
// sequentially in index order. The report is therefore a pure function of the input files
// — byte-identical JSON for any BLAP_JOBS value.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analytics/detector.hpp"
#include "obs/obs.hpp"

namespace blap::analytics {

/// Corpus ground truth: capture file name (base name, no directory) to the
/// set of attack labels present in it. Shares the detector id vocabulary.
using LabelMap = std::map<std::string, std::set<std::string>>;

/// Load a labels.jsonl manifest: one {"file": "...", "labels": [...]}
/// object per line. nullopt when the file cannot be read or a line does not
/// parse; the loader is strict because a silently half-read manifest would
/// corrupt the precision/recall table.
[[nodiscard]] std::optional<LabelMap> load_labels(const std::string& path);

struct FleetConfig {
  /// Worker threads: 0 = campaign::resolve_jobs() (BLAP_JOBS env, else
  /// hardware concurrency).
  unsigned jobs = 0;
  DetectorConfig detectors;
};

/// One capture's scan result.
struct FileReport {
  std::string path;  // as given to the engine (not emitted in JSON)
  std::string name;  // base name; the JSON identity and label-manifest key
  bool opened = false;
  std::size_t bytes = 0;
  std::size_t records = 0;
  /// Records by H4 type byte: [0] an unknown type, [t] hci::PacketType t.
  std::array<std::size_t, 5> records_by_type{};
  std::size_t truncated_payloads = 0;  // records the dump cut short (§VII-A)
  hci::SnoopFault fault;               // first malformed shape, if any
  std::vector<Finding> findings;       // sorted by (frame, detector)
};

/// Confusion-matrix cell counts for one detector against the labels.
struct DetectorScore {
  std::size_t tp = 0, fp = 0, fn = 0, tn = 0;
  /// 1.0 when the denominator is zero (nothing predicted / nothing labelled).
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
};

struct FleetReport {
  std::size_t files_scanned = 0;  // files successfully opened and walked
  std::size_t files_failed = 0;   // unreadable file or bad snoop header
  std::uint64_t bytes_total = 0;
  std::uint64_t records_total = 0;
  std::size_t findings_total = 0;
  /// Zero-filled over default_detector_names(), so every report carries the
  /// full vocabulary even when a detector never fired.
  std::map<std::string, std::size_t> findings_per_detector;
  std::vector<FileReport> files;  // sorted by name (the scan order)
  obs::MetricsSnapshot metrics;   // fleet counters, summed from the files
  bool scored = false;
  std::map<std::string, DetectorScore> scores;  // per detector, when labelled

  /// Deterministic JSON: pure function of the input captures (and labels).
  [[nodiscard]] std::string to_json() const;
};

/// Scan one capture with a caller-owned detector set (reused across files —
/// finish() returns each detector to its reset state).
[[nodiscard]] FileReport analyze_file(const std::string& path,
                                      std::vector<std::unique_ptr<Detector>>& detectors);

/// Scan `paths` across a worker pool and aggregate. Paths are sorted (by
/// base name, then full path) before the scan, so the report order does not
/// depend on how the caller enumerated them.
[[nodiscard]] FleetReport analyze_files(std::vector<std::string> paths,
                                        const FleetConfig& config = {},
                                        const LabelMap* labels = nullptr);

/// All *.btsnoop files directly under `dir`, sorted.
[[nodiscard]] std::vector<std::string> list_snoop_files(const std::string& dir);

/// Convenience: list_snoop_files(dir), auto-load `dir`/labels.jsonl when
/// present, scan and score.
[[nodiscard]] FleetReport analyze_tree(const std::string& dir,
                                       const FleetConfig& config = {});

}  // namespace blap::analytics
