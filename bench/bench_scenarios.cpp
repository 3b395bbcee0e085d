// End-to-end scenario benchmarks: wall-clock cost of complete simulated
// procedures (device bring-up, SSP/legacy pairing, bonded reconnect, both
// attacks). These are the numbers that size bulk experiments like Table II's
// 700 independent trials.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/link_key_extraction.hpp"
#include "core/page_blocking.hpp"
#include "snapshot/page_blocking_trial.hpp"

namespace {

using namespace blap;
using namespace blap::core;
using blap::bench::Scenario;

DeviceSpec spec(const std::string& name, const std::string& addr) {
  DeviceSpec s;
  s.name = name;
  s.address = *BdAddr::parse(addr);
  return s;
}

// Shared across all benchmark fixtures; atomic, so fixtures stay race-free
// under --benchmark_threads (the old `static std::uint64_t seed++` was not).
std::uint64_t next_seed() {
  static blap::bench::SeedStream stream(1'000'000);
  return stream.next();
}

void BM_DeviceBringUp(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim(next_seed());
    Device& d = sim.add_device(spec("d", "00:00:00:00:00:01"));
    benchmark::DoNotOptimize(d.host().address());
  }
}
BENCHMARK(BM_DeviceBringUp);

void pair_once(bool p256, bool legacy, benchmark::State& state) {
  Simulation sim(next_seed());
  DeviceSpec a = spec("a", "00:00:00:00:00:01");
  DeviceSpec b = spec("b", "00:00:00:00:00:02");
  a.controller.secure_connections = p256;
  b.controller.secure_connections = p256;
  a.host.simple_pairing = !legacy;
  b.host.simple_pairing = !legacy;
  Device& da = sim.add_device(a);
  Device& db = sim.add_device(b);
  bool done = false;
  da.host().pair(db.address(), [&](hci::Status s) { done = s == hci::Status::kSuccess; });
  sim.run_for(20 * kSecond);
  if (!done) state.SkipWithError("pairing failed");
}

void BM_SspPairing_P192(benchmark::State& state) {
  for (auto _ : state) pair_once(false, false, state);
}
BENCHMARK(BM_SspPairing_P192);

void BM_SspPairing_P256(benchmark::State& state) {
  for (auto _ : state) pair_once(true, false, state);
}
BENCHMARK(BM_SspPairing_P256);

void BM_LegacyPinPairing(benchmark::State& state) {
  for (auto _ : state) pair_once(false, true, state);
}
BENCHMARK(BM_LegacyPinPairing);

void BM_BondedReconnect(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim(next_seed());
    Device& a = sim.add_device(spec("a", "00:00:00:00:00:01"));
    Device& b = sim.add_device(spec("b", "00:00:00:00:00:02"));
    bool done = false;
    a.host().pair(b.address(), [&](hci::Status s) { done = s == hci::Status::kSuccess; });
    sim.run_for(20 * kSecond);
    a.host().disconnect(b.address());
    sim.run_for(2 * kSecond);
    if (!done) state.SkipWithError("setup pairing failed");
    state.ResumeTiming();

    bool reconnected = false;
    a.host().pair(b.address(), [&](hci::Status s) {
      reconnected = s == hci::Status::kSuccess;
    });
    sim.run_for(20 * kSecond);
    benchmark::DoNotOptimize(reconnected);
  }
}
BENCHMARK(BM_BondedReconnect);

void BM_LinkKeyExtractionAttack(benchmark::State& state) {
  for (auto _ : state) {
    Scenario s = blap::bench::make_extraction_scenario(next_seed(), table1_profiles()[0]);
    LinkKeyExtractionOptions options;
    options.validate_by_impersonation = false;
    const auto report =
        LinkKeyExtractionAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, options);
    if (!report.key_extracted) state.SkipWithError("extraction failed");
  }
}
BENCHMARK(BM_LinkKeyExtractionAttack);

void BM_PageBlockingAttack(benchmark::State& state) {
  for (auto _ : state) {
    Scenario s = blap::bench::make_scenario(next_seed(), table2_profiles()[5],
                                            TransportKind::kUart, true);
    const auto report =
        PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
    if (!report.mitm_established) state.SkipWithError("attack failed");
  }
}
BENCHMARK(BM_PageBlockingAttack);

void BM_BaselineMitmTrial(benchmark::State& state) {
  for (auto _ : state) {
    Scenario s = blap::bench::make_scenario(next_seed(), table2_profiles()[5],
                                            TransportKind::kUart, true);
    benchmark::DoNotOptimize(
        PageBlockingAttack::baseline_trial(*s.sim, *s.attacker, *s.accessory, *s.target));
  }
}
BENCHMARK(BM_BaselineMitmTrial);

// One Table II cell through the campaign engine: 32 baseline trials per
// iteration, worker count from the benchmark argument. Sizes the batch
// throughput the sweep binaries actually see.
void BM_CampaignBaselineCell(benchmark::State& state) {
  const auto& profile = table2_profiles()[5];
  std::size_t successes = 0;
  for (auto _ : state) {
    campaign::CampaignConfig cfg;
    cfg.label = "bench cell";
    cfg.trials = 32;
    cfg.root_seed = next_seed();
    cfg.jobs = static_cast<unsigned>(state.range(0));
    const auto summary =
        campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
          Scenario s = blap::bench::make_scenario(spec.seed, profile,
                                                  TransportKind::kUart, true);
          return blap::snapshot::PageBlockingTrial{}(spec, s);
        });
    successes += summary.successes;
  }
  benchmark::DoNotOptimize(successes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_CampaignBaselineCell)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
