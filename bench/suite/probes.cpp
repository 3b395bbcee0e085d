// probes.cpp — unit-cost probes of every layer, timed from outside around
// public calls. A traced run of any workload runs all of them, so every
// workload reports every per-layer metric; the workload's own per-op counts
// (events, pairings, restores, builds, records) say which of these costs it
// actually pays.
#include <filesystem>

#include "analytics/detector.hpp"
#include "analytics/fleet.hpp"
#include "analytics/mapped_file.hpp"
#include "core/page_blocking.hpp"
#include "core/profiles.hpp"
#include "crypto/cmac.hpp"
#include "crypto/e1.hpp"
#include "crypto/ecdh.hpp"
#include "crypto/saferplus.hpp"
#include "crypto/ssp_functions.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/targets.hpp"
#include "hci/snoop.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/fuzz_trial.hpp"
#include "snapshot/scenarios.hpp"
#include "snapshot/snapshot.hpp"
#include "suite.hpp"

namespace blap::bench {
namespace {

/// Keep a computed value alive without letting the optimizer see through it.
template <typename T>
void keep(const T& value) {
  __asm__ __volatile__("" : : "r"(&value) : "memory");
}

/// Median over `batches` of the mean ns per call of `fn` across `iters`
/// calls, one span per batch.
template <typename Fn>
double ns_per_call(SpanLog& spans, const char* span, std::size_t batches, std::size_t iters,
                   Fn&& fn) {
  std::vector<double> per_call;
  for (std::size_t b = 0; b < batches; ++b) {
    const SpanLog::Scope s(&spans, span);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    per_call.push_back(static_cast<double>(elapsed_ns(t0)) / static_cast<double>(iters));
  }
  return median(std::move(per_call));
}

/// Time one call of `fn` (which returns its own measured ns) `n` times.
template <typename Fn>
std::vector<double> samples_ns(std::size_t n, Fn&& fn) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
  return out;
}

void crypto_probes(std::size_t scale, SpanLog& spans, std::map<std::string, double>& m) {
  Rng rng(7);
  const auto& curve = crypto::EcCurve::p256();
  m["crypto.p256_keygen_us"] =
      ns_per_call(spans, "crypto.p256_keygen", 5, scale, [&](std::size_t) {
        keep(crypto::generate_keypair(curve, rng));
      }) * 1e-3;
  const auto alice = crypto::generate_keypair(curve, rng);
  const auto bob = crypto::generate_keypair(curve, rng);
  m["crypto.p256_ecdh_us"] = ns_per_call(spans, "crypto.p256_ecdh", 5, scale, [&](std::size_t) {
                               keep(crypto::ecdh_shared_secret(curve, alice.private_key,
                                                               bob.public_key));
                             }) * 1e-3;
  const auto dh = *crypto::ecdh_shared_secret(curve, alice.private_key, bob.public_key);
  const BdAddr a = *BdAddr::parse("aa:bb:cc:dd:ee:01");
  const BdAddr b = *BdAddr::parse("aa:bb:cc:dd:ee:02");
  crypto::Rand128 n1{};
  crypto::Rand128 n2{};
  n1.fill(1);
  n2.fill(2);
  m["crypto.f2_ns"] = ns_per_call(spans, "crypto.f2", 5, 50 * scale, [&](std::size_t) {
    keep(crypto::f2(curve, dh, n1, n2, a, b));
  });
  crypto::Rand128 challenge{};
  challenge.fill(0x2A);
  crypto::SaferPlus::Key cipher_key{};
  cipher_key.fill(0x71);
  m["crypto.e1_ns"] = ns_per_call(spans, "crypto.e1", 5, 50 * scale, [&](std::size_t) {
    keep(crypto::e1(cipher_key, challenge, a));
  });
  const crypto::SaferPlus cipher(cipher_key);
  crypto::SaferPlus::Block block{};
  m["crypto.saferplus_ar_ns"] =
      ns_per_call(spans, "crypto.saferplus_ar", 5, 200 * scale, [&](std::size_t) {
        block = cipher.ar(block);
        keep(block);
      });
  crypto::Aes128::Key mac_key{};
  mac_key.fill(0x2B);
  const Bytes message(1024, 0x6B);
  m["crypto.aes_cmac_1k_ns"] =
      ns_per_call(spans, "crypto.aes_cmac_1k", 5, 20 * scale, [&](std::size_t) {
        keep(crypto::aes_cmac(mac_key, message));
      });
}

void hci_probes(std::size_t scale, SpanLog& spans, std::map<std::string, double>& m) {
  // A fixed command / event / ACL mix, as it crosses an HCI transport.
  std::vector<hci::HciPacket> packets;
  packets.push_back(hci::make_command(hci::op::kAuthenticationRequested, Bytes{0x01, 0x00}));
  packets.push_back(hci::make_event(hci::ev::kConnectionComplete, Bytes(11, 0x01)));
  packets.push_back(hci::make_acl(0x0001, Bytes(160, 0x5A)));
  packets.push_back(hci::make_command(hci::op::kLinkKeyRequestReply, Bytes(22, 0x33)));
  std::vector<Bytes> wires;
  for (const auto& p : packets) wires.push_back(p.to_wire());
  const std::size_t n = packets.size();

  m["hci.decode_ns"] = ns_per_call(spans, "hci.decode", 5, 400 * scale, [&](std::size_t i) {
    keep(hci::HciPacket::from_wire(wires[i % n]));
  });
  m["hci.encode_ns"] = ns_per_call(spans, "hci.encode", 5, 400 * scale, [&](std::size_t i) {
    keep(packets[i % n].to_wire());
  });
  hci::SnoopLog log;
  m["hci.snoop_append_ns"] =
      ns_per_call(spans, "hci.snoop_append", 5, 400 * scale, [&](std::size_t i) {
        if (i == 0) log.clear();
        hci::SnoopRecord record;
        record.timestamp_us = i;
        record.direction = i % 2 == 0 ? hci::Direction::kHostToController
                                      : hci::Direction::kControllerToHost;
        record.packet = packets[i % n];
        log.append(std::move(record));
      });
}

void scheduler_probe(std::size_t scale, SpanLog& spans, std::map<std::string, double>& m) {
  constexpr std::size_t kEvents = 1024;
  Scheduler scheduler;
  std::uint64_t fired = 0;
  m["scheduler.schedule_fire_ns"] =
      ns_per_call(spans, "scheduler.schedule_fire", 5, scale, [&](std::size_t) {
        for (std::size_t e = 0; e < kEvents; ++e)
          scheduler.schedule_in(e % 64, [&fired] { ++fired; });
        scheduler.run_all();
      }) /
      static_cast<double>(kEvents);
  keep(fired);
}

void core_probes(std::size_t scale, SpanLog& spans, std::map<std::string, double>& m) {
  const auto& profiles = core::table2_profiles();
  const auto params = [&](std::size_t i) {
    snapshot::ScenarioParams p;
    p.profile_index = i % profiles.size();
    p.accessory_has_dump = true;
    p.baseline_bias = profiles[p.profile_index].baseline_mitm_success;
    return p;
  };
  const std::size_t n = 2 * scale;
  m["core.build_scenario_us"] =
      median(samples_ns(n, [&](std::size_t i) {
        const SpanLog::Scope s(&spans, "core.build_scenario");
        const auto t0 = Clock::now();
        const auto scenario = snapshot::build_scenario(30'000 + i, params(i));
        keep(scenario);
        return static_cast<double>(elapsed_ns(t0));
      })) *
      1e-3;
  m["core.baseline_trial_us"] =
      median(samples_ns(n, [&](std::size_t i) {
        auto s = snapshot::build_scenario(31'000 + i, params(i));
        const SpanLog::Scope span(&spans, "core.baseline_trial");
        const auto t0 = Clock::now();
        keep(core::PageBlockingAttack::baseline_trial(*s.sim, *s.attacker, *s.accessory,
                                                      *s.target));
        return static_cast<double>(elapsed_ns(t0));
      })) *
      1e-3;
  m["core.attack_trial_us"] =
      median(samples_ns(n, [&](std::size_t i) {
        auto s = snapshot::build_scenario(32'000 + i, params(i));
        const SpanLog::Scope span(&spans, "core.attack_trial");
        const auto t0 = Clock::now();
        keep(core::PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {})
                 .mitm_established);
        return static_cast<double>(elapsed_ns(t0));
      })) *
      1e-3;
}

/// The bonded cell taken apart: capture, then restore / reseed / PAN probe
/// one call at a time — the steps run_fork_campaign performs per trial.
void snapshot_probes(std::size_t scale, SpanLog& spans, std::map<std::string, double>& m) {
  snapshot::Scenario s = snapshot::build_scenario(20'000, snapshot::bonded_cell_params());
  snapshot::bonded_warm_setup(s);
  std::optional<snapshot::Snapshot> warm;
  m["snapshot.capture_us"] = median(samples_ns(2 * scale, [&](std::size_t) {
                               const SpanLog::Scope span(&spans, "snapshot.capture");
                               const auto t0 = Clock::now();
                               warm = snapshot::Snapshot::capture(*s.sim);
                               return static_cast<double>(elapsed_ns(t0));
                             })) *
                             1e-3;
  if (!warm) return;
  m["snapshot.bytes"] = static_cast<double>(warm->bytes().size());
  std::vector<double> restore, reseed, probe;
  for (std::size_t i = 0; i < 20 * scale; ++i) {
    const SpanLog::Scope trial(&spans, "probe.fork_trial");
    auto t0 = Clock::now();
    {
      const SpanLog::Scope span(&spans, "snapshot.restore");
      if (!warm->restore(*s.sim)) return;
    }
    restore.push_back(static_cast<double>(elapsed_ns(t0)));
    t0 = Clock::now();
    {
      const SpanLog::Scope span(&spans, "core.reseed");
      s.sim->reseed(20'000 + i);
    }
    reseed.push_back(static_cast<double>(elapsed_ns(t0)));
    t0 = Clock::now();
    bool validated = false;
    {
      const SpanLog::Scope span(&spans, "core.pan_probe");
      s.accessory->host().connect_pan(s.target->address(),
                                      [&validated](bool ok) { validated = ok; });
      s.sim->run_for(5 * kSecond);
    }
    probe.push_back(static_cast<double>(elapsed_ns(t0)));
    keep(validated);
  }
  m["snapshot.restore_us"] = median(restore) * 1e-3;
  m["core.reseed_us"] = median(reseed) * 1e-3;
  m["core.pan_probe_us"] = median(probe) * 1e-3;
}

void fuzz_probes(std::size_t scale, SpanLog& spans, std::map<std::string, double>& m) {
  fuzz::StackTarget target;
  std::vector<Bytes> pool = target.seed_inputs();
  fuzz::Mutator mutator(99);
  m["fuzz.mutate_ns"] = ns_per_call(spans, "fuzz.mutate", 5, 40 * scale, [&](std::size_t i) {
    keep(mutator.mutate(pool[i % pool.size()], pool, target.max_input_len()));
  });
  std::vector<Bytes> inputs = pool;
  while (inputs.size() < 110 * scale)
    inputs.push_back(
        mutator.mutate(inputs[inputs.size() % pool.size()], pool, target.max_input_len()));

  std::vector<double> execute;
  std::vector<double> emit;  // execute minus the bare trial body, same input
  std::vector<fuzz::FeatureSink> sinks;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    fuzz::FeatureSink sink;
    auto t0 = Clock::now();
    {
      const SpanLog::Scope span(&spans, "fuzz.execute");
      keep(target.execute(inputs[i], sink));
    }
    const double exec_ns = static_cast<double>(elapsed_ns(t0));
    execute.push_back(exec_ns);
    if (i % 5 == 0) {
      t0 = Clock::now();
      {
        const SpanLog::Scope span(&spans, "snapshot.run_fuzz_stack_trial");
        keep(snapshot::run_fuzz_stack_trial(target.scenario(), target.warm(),
                                            fuzz::kStackSeed, inputs[i]));
      }
      emit.push_back(exec_ns - static_cast<double>(elapsed_ns(t0)));
      sinks.push_back(std::move(sink));
    }
  }
  m["fuzz.execute_us.p50"] = quantile(execute, 0.5) * 1e-3;
  m["fuzz.execute_us.p99"] = quantile(execute, 0.99) * 1e-3;
  m["fuzz.feature_emit_us"] = median(emit) * 1e-3;
  // One fresh map per batch: the first executions of a campaign are the
  // ones that grow the map, which is where accumulate costs most.
  std::vector<double> coverage;
  for (std::size_t b = 0; b < 5; ++b) {
    fuzz::CoverageMap map;
    const SpanLog::Scope span(&spans, "fuzz.coverage");
    const auto t0 = Clock::now();
    for (const auto& sink : sinks) keep(map.accumulate(sink));
    coverage.push_back(static_cast<double>(elapsed_ns(t0)) /
                       static_cast<double>(sinks.size()));
  }
  m["fuzz.coverage_ns"] = median(coverage);
}

void analytics_probes(std::size_t scale, const std::string& dir, SpanLog& spans,
                      std::map<std::string, double>& m) {
  Rng rng(11);
  const Bytes bulk = synthetic_capture(rng, 2'000 * scale);
  const Bytes small = synthetic_capture(rng, 40);
  const std::string bulk_path = dir + "/probe_bulk.btsnoop";
  const std::string small_path = dir + "/probe_small.btsnoop";
  if (!write_file(bulk_path, bulk) || !write_file(small_path, small)) return;
  const auto bytes = static_cast<double>(bulk.size());

  const double cursor_ns = ns_per_call(spans, "analytics.cursor_walk", 5, 1, [&](std::size_t) {
    auto cursor = hci::SnoopCursor::open(bulk);
    while (cursor && cursor->next()) {
    }
  });
  auto detectors = analytics::make_default_detectors();
  std::vector<analytics::Finding> findings;
  const double detect_ns = ns_per_call(spans, "analytics.detect_walk", 5, 1, [&](std::size_t) {
    auto cursor = hci::SnoopCursor::open(bulk);
    while (cursor) {
      const auto view = cursor->next();
      if (!view) break;
      const auto ctx = analytics::RecordCtx::from_view(*view);
      for (auto& d : detectors) d->on_record(ctx);
    }
    findings.clear();
    for (auto& d : detectors) d->finish(findings);
  });
  analytics::FleetConfig one_job;
  one_job.jobs = 1;
  const double analyze_ns = ns_per_call(spans, "analytics.analyze_bulk", 5, 1, [&](std::size_t) {
    keep(analytics::analyze_files({bulk_path}, one_job));
  });
  const double bulk_map_ns = ns_per_call(spans, "analytics.map_bulk", 5, 20, [&](std::size_t) {
    keep(analytics::MappedFile::open(bulk_path));
  });
  m["analytics.cursor_gb_s"] = bytes / cursor_ns;
  m["analytics.detect_gb_s"] = bytes / detect_ns;
  m["analytics.analyze_gb_s"] = bytes / analyze_ns;
  // What analyze_files spends beyond the detector walk and the mapping is
  // mostly the per-record MetricsRegistry::add — an estimate from outside.
  m["obs.metrics_share_est"] = std::max(0.0, (analyze_ns - detect_ns - bulk_map_ns) / analyze_ns);
  m["analytics.map_us"] = ns_per_call(spans, "analytics.map", 5, 20 * scale, [&](std::size_t) {
                            keep(analytics::MappedFile::open(small_path));
                          }) *
                          1e-3;
  m["analytics.analyze_file_us"] =
      ns_per_call(spans, "analytics.analyze_file", 5, 20 * scale, [&](std::size_t) {
        keep(analytics::analyze_file(small_path, detectors));
      }) *
      1e-3;
}

}  // namespace

void run_layer_probes(const Options& options, const std::string& scratch_dir, SpanLog& spans,
                      std::map<std::string, double>& metrics) {
  const std::size_t scale = options.scale == Scale::kSmoke ? 2 : 10;
  const SpanLog::Scope all(&spans, "probes");
  crypto_probes(scale, spans, metrics);
  hci_probes(scale, spans, metrics);
  scheduler_probe(scale, spans, metrics);
  core_probes(scale, spans, metrics);
  snapshot_probes(scale, spans, metrics);
  fuzz_probes(scale, spans, metrics);
  analytics_probes(scale, scratch_dir, spans, metrics);
}

}  // namespace blap::bench
