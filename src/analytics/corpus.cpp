#include "analytics/corpus.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>

#include "analytics/detector.hpp"
#include "campaign/campaign.hpp"
#include "common/log.hpp"
#include "core/mitigations.hpp"
#include "core/page_blocking.hpp"
#include "obs/obs.hpp"
#include "snapshot/scenarios.hpp"

namespace blap::analytics {
namespace {

using core::Simulation;
using snapshot::Scenario;

/// One generated capture: its serialized bytes and ground-truth labels.
struct TrialOutput {
  Bytes snoop;
  std::set<std::string> labels;
  bool ok = false;  // false voids the file (scenario outcome unusable)
};

snapshot::ScenarioParams extraction_params() {
  snapshot::ScenarioParams params;
  params.kind = snapshot::ScenarioParams::Kind::kExtraction;
  params.table = snapshot::ProfileTable::kTable1;
  params.profile_index = 0;
  return params;
}

/// Victim-initiated pairing with the accessory; the benign Fig. 12a flow.
hci::Status pair_once(Scenario& s, SimTime window) {
  bool done = false;
  hci::Status status = hci::Status::kConnectionTimeout;
  s.target->host().pair(s.accessory->address(), [&](hci::Status st) {
    done = true;
    status = st;
  });
  s.sim->run_for(window);
  return done ? status : hci::Status::kConnectionTimeout;
}

std::uint64_t observed_counter(Scenario& s, std::string_view name) {
  obs::Observer* obs = s.sim->observer();
  if (obs == nullptr) return 0;
  const auto snapshot = obs->snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TrialOutput finish_trial(Scenario& s, std::set<std::string> labels, bool ok) {
  TrialOutput out;
  out.snoop = s.target->host().snoop().serialize();
  out.labels = std::move(labels);
  out.ok = ok;
  return out;
}

TrialOutput benign_filtered_trial(std::uint64_t seed) {
  Scenario s = snapshot::build_scenario(seed, extraction_params());
  core::apply_snoop_filter(*s.target, core::SnoopFilterMode::kHeaderOnly);
  s.target->host().enable_snoop(true);
  const hci::Status status = pair_once(s, 30 * kSecond);
  return finish_trial(s, {}, status == hci::Status::kSuccess);
}

TrialOutput benign_lossy_trial(std::uint64_t seed) {
  Scenario s = snapshot::build_scenario(seed, extraction_params());
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  s.sim->enable_observability(obs_cfg);
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.loss = 0.05;
  s.sim->set_fault_plan(plan);
  core::apply_snoop_filter(*s.target, core::SnoopFilterMode::kHeaderOnly);
  s.target->host().enable_snoop(true);
  (void)pair_once(s, 120 * kSecond);
  // Honest labelling: mild loss occasionally escalates into a real retry
  // storm, and the manifest must say so when it does.
  std::set<std::string> labels;
  if (observed_counter(s, "host.pairing_retries") >= 2)
    labels.insert(std::string(kPairingRetryStorm));
  return finish_trial(s, std::move(labels), true);
}

TrialOutput plaintext_key_trial(std::uint64_t seed) {
  Scenario s = snapshot::build_scenario(seed, extraction_params());
  s.target->host().enable_snoop(true);  // unfiltered: the §IV-A exposure
  const hci::Status status = pair_once(s, 30 * kSecond);
  std::set<std::string> labels;
  if (status == hci::Status::kSuccess) labels.insert(std::string(kPlaintextLinkKey));
  return finish_trial(s, std::move(labels), status == hci::Status::kSuccess);
}

/// Synthetic attacker-tool capture: a Read_Stored_Link_Key sweep and the
/// Return_Link_Keys bond dump it triggers, between benign inquiry traffic.
/// No simulation — the log is built record by record, like the tooling the
/// paper's extraction pipeline scrapes.
TrialOutput key_sweep_trial(std::uint64_t seed) {
  hci::SnoopLog log;
  SimTime t = 1000;
  auto add = [&](hci::Direction dir, const hci::HciPacket& packet) {
    hci::SnoopRecord record;
    record.timestamp_us = t;
    record.direction = dir;
    record.packet = packet;
    log.append(record);
    t += 1250;
  };
  ByteWriter inquiry;
  inquiry.u8(0x33).u8(0x8b).u8(0x9e);  // GIAC LAP
  inquiry.u8(8).u8(0);                 // length, unlimited responses
  add(hci::Direction::kHostToController, hci::make_command(hci::op::kInquiry, inquiry.data()));
  ByteWriter inquiry_done;
  inquiry_done.u8(0x00);
  add(hci::Direction::kControllerToHost,
      hci::make_event(hci::ev::kInquiryComplete, inquiry_done.data()));

  ByteWriter sweep;
  BdAddr().to_wire(sweep);  // BD_ADDR ignored when Read_All_Flag is set
  sweep.u8(0x01);           // Read_All_Flag
  add(hci::Direction::kHostToController,
      hci::make_command(hci::op::kReadStoredLinkKey, sweep.data()));

  std::uint64_t stream = seed;
  const std::size_t num_keys = 1 + campaign::splitmix64(stream) % 3;
  ByteWriter dump;
  dump.u8(static_cast<std::uint8_t>(num_keys));
  for (std::size_t k = 0; k < num_keys; ++k) {
    std::array<std::uint8_t, BdAddr::kSize> addr{};
    std::uint64_t a = campaign::splitmix64(stream);
    for (auto& b : addr) {
      b = static_cast<std::uint8_t>(a);
      a >>= 8;
    }
    BdAddr(addr).to_wire(dump);
    for (std::size_t i = 0; i < 16; i += 8) {
      const std::uint64_t word = campaign::splitmix64(stream);
      dump.u64(word);
      (void)i;
    }
  }
  // blap-taint: declassified — plaintext-key snoop corpus generator: this trial
  // exists to hand blap-snoopd a Return_Link_Keys dump to detect
  add(hci::Direction::kControllerToHost,
      hci::make_event(hci::ev::kReturnLinkKeys, dump.data()));
  TrialOutput out;
  out.snoop = log.serialize();
  out.labels.insert(std::string(kPlaintextLinkKey));
  out.ok = true;
  return out;
}

TrialOutput page_blocking_trial(std::uint64_t seed) {
  snapshot::ScenarioParams params;
  params.kind = snapshot::ScenarioParams::Kind::kAbc;
  params.table = snapshot::ProfileTable::kTable2;
  params.profile_index = 0;
  params.accessory_transport = core::TransportKind::kUart;
  params.accessory_has_dump = true;
  Scenario s = snapshot::build_scenario(seed, params);
  // No enable_snoop here: the attack itself force-enables the victim dump
  // (that dump existing is precondition to the paper's extraction step).
  const auto report =
      core::PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  // Ground truth from the simulation outcome, not from the dump: the
  // page-blocking label means the victim's pairing actually landed on the
  // attacker over the held PLOC.
  std::set<std::string> labels;
  if (report.mitm_established) labels.insert(std::string(kPageBlocking));
  if (report.pairing_completed) labels.insert(std::string(kPlaintextLinkKey));
  return finish_trial(s, std::move(labels), report.ploc_established);
}

TrialOutput ssp_downgrade_trial(std::uint64_t seed) {
  Scenario s = snapshot::build_scenario(seed, extraction_params());
  core::apply_snoop_filter(*s.target, core::SnoopFilterMode::kHeaderOnly);
  s.target->host().enable_snoop(true);
  const hci::Status first = pair_once(s, 30 * kSecond);
  // The user "re-pairs with the car kit": bonds drop on both sides and the
  // device answering to C's address now advertises NoInputNoOutput.
  s.target->host().security().remove_bond(s.accessory->address());
  s.accessory->host().security().remove_bond(s.target->address());
  s.accessory->host().config().io_capability = hci::IoCapability::kNoInputNoOutput;
  const hci::Status second = pair_once(s, 30 * kSecond);
  const bool ok = first == hci::Status::kSuccess && second == hci::Status::kSuccess;
  std::set<std::string> labels;
  if (ok) labels.insert(std::string(kSspDowngrade));
  return finish_trial(s, std::move(labels), ok);
}

TrialOutput retry_storm_trial(std::uint64_t seed) {
  Scenario s = snapshot::build_scenario(seed, extraction_params());
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  s.sim->enable_observability(obs_cfg);
  // A long jam plus moderate loss: every page inside the jam dies on a
  // timeout, the host's retry-with-backoff keeps re-running the pair op,
  // and each dead attempt leaves a failed Connection_Complete in the dump.
  // (Pure iid loss is the wrong tool here — baseband ARQ absorbs it without
  // the pair op ever failing, so no host-level retries happen.)
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.loss = 0.10;
  plan.jam_windows.push_back({0, 90 * kSecond});
  s.sim->set_fault_plan(plan);
  // A stormier budget than the default 3-attempt policy, as a stack whose
  // user keeps mashing "pair" would show.
  s.target->host().security().set_retry_policy({.max_attempts = 6,
                                                .initial_backoff = kSecond});
  core::apply_snoop_filter(*s.target, core::SnoopFilterMode::kHeaderOnly);
  s.target->host().enable_snoop(true);
  (void)pair_once(s, 600 * kSecond);
  std::set<std::string> labels;
  if (observed_counter(s, "host.pairing_retries") >= 2)
    labels.insert(std::string(kPairingRetryStorm));
  return finish_trial(s, std::move(labels), true);
}

struct ClassSpec {
  std::string name;
  std::function<TrialOutput(std::uint64_t)> trial;
};

const std::vector<ClassSpec>& corpus_classes() {
  static const std::vector<ClassSpec> classes = {
      {"benign_filtered", benign_filtered_trial},
      {"benign_lossy", benign_lossy_trial},
      {"plaintext_key", plaintext_key_trial},
      {"key_sweep", key_sweep_trial},
      {"page_blocking", page_blocking_trial},
      {"ssp_downgrade", ssp_downgrade_trial},
      {"retry_storm", retry_storm_trial},
  };
  return classes;
}

}  // namespace

const std::vector<std::string>& corpus_class_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& spec : corpus_classes()) out.push_back(spec.name);
    return out;
  }();
  return names;
}

std::optional<CorpusSummary> generate_corpus(const CorpusOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) return std::nullopt;

  CorpusSummary summary;
  struct ManifestEntry {
    std::string file;
    std::set<std::string> labels;
    bool written = false;
  };
  std::vector<ManifestEntry> manifest;
  bool write_failed = false;

  const auto& classes = corpus_classes();
  for (std::size_t class_index = 0; class_index < classes.size(); ++class_index) {
    const ClassSpec& spec = classes[class_index];
    // Distinct seed stream per class, derived from the corpus root.
    const std::uint64_t class_seed = campaign::trial_seed(options.root_seed, class_index);

    std::vector<ManifestEntry> slots(options.files_per_class);
    campaign::parallel_indexed(options.files_per_class, options.jobs, [&] {
      return [&](std::size_t i) {
        TrialOutput out = spec.trial(campaign::trial_seed(class_seed, i));
        if (!out.ok) return;  // voided trial: no file, no manifest row
        ManifestEntry& entry = slots[i];
        entry.file = strfmt("%s_%04zu.btsnoop", spec.name.c_str(), i);
        entry.labels = std::move(out.labels);
        std::ofstream file(options.dir + "/" + entry.file, std::ios::binary);
        file.write(reinterpret_cast<const char*>(out.snoop.data()),
                   static_cast<std::streamsize>(out.snoop.size()));
        file.flush();
        entry.written = static_cast<bool>(file);
      };
    });
    for (auto& entry : slots) {
      if (!entry.written) {
        if (entry.file.empty()) ++summary.trials_failed;
        else write_failed = true;
        continue;
      }
      ++summary.files_written;
      ++summary.files_per_class[spec.name];
      for (const auto& label : entry.labels) ++summary.files_per_label[label];
      manifest.push_back(std::move(entry));
    }
  }
  if (write_failed) return std::nullopt;

  std::sort(manifest.begin(), manifest.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) { return a.file < b.file; });
  std::ofstream labels_out(options.dir + "/labels.jsonl");
  for (const auto& entry : manifest) {
    labels_out << "{\"file\": \"" << entry.file << "\", \"labels\": [";
    bool first = true;
    for (const auto& label : entry.labels) {
      if (!first) labels_out << ", ";
      first = false;
      labels_out << '"' << label << '"';
    }
    labels_out << "]}\n";
  }
  labels_out.flush();
  if (!labels_out) return std::nullopt;
  return summary;
}

}  // namespace blap::analytics
