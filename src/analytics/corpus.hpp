// corpus.hpp — labelled snoop-capture corpus generation.
//
// The fleet analytics engine needs ground truth to report precision/recall,
// and the simulator is the one place ground truth exists by construction:
// every capture comes out of a scenario whose outcome (pair status, PLOC
// establishment, retry counters) is known from the simulation side, never
// from scanning the log the detectors will scan. generate_corpus() runs
// each scenario class's trials across campaign::parallel_indexed and writes
//
//   <dir>/<class>_<index>.btsnoop   — the victim device's HCI dump
//   <dir>/labels.jsonl              — {"file": ..., "labels": [...]} per file
//
// Classes (files are multi-labelled when a scenario triggers several
// signatures — e.g. an unfiltered page-blocking victim also logs the
// plaintext key its pairing produced):
//
//   benign_filtered — normal pairing, §VII-A header-only snoop filter on
//   benign_lossy    — normal pairing over a mildly lossy channel (5%)
//   plaintext_key   — normal pairing, unfiltered dump (§IV-A exposure)
//   key_sweep       — synthetic attacker-tool log: Read_Stored_Link_Key +
//                     Return_Link_Keys bond dump
//   page_blocking   — full §V attack; the victim's dump shows Fig. 12b
//   ssp_downgrade   — re-pair after bond removal with the peer collapsed to
//                     NoInputNoOutput (car-kit impersonation shape)
//   retry_storm     — pairing into a 90 s jam window with fault recovery
//                     retrying on backoff (the failed-page storm shape)
//
// Output is deterministic: same (dir contents, labels) for a given root
// seed and files_per_class, for any jobs value.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace blap::analytics {

struct CorpusOptions {
  std::string dir;
  std::size_t files_per_class = 8;
  std::uint64_t root_seed = 1;
  /// 0 = campaign::resolve_jobs().
  unsigned jobs = 0;
};

struct CorpusSummary {
  std::size_t files_written = 0;
  std::size_t trials_failed = 0;  // scenario outcomes that voided the file
  std::map<std::string, std::size_t> files_per_class;
  std::map<std::string, std::size_t> files_per_label;
};

/// The class names in generation order.
[[nodiscard]] const std::vector<std::string>& corpus_class_names();

/// Generate the corpus. nullopt when `dir` cannot be created or a file
/// write fails.
[[nodiscard]] std::optional<CorpusSummary> generate_corpus(const CorpusOptions& options);

}  // namespace blap::analytics
