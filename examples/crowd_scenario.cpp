// crowd_scenario — the BLAP attacker inside a dense radio crowd.
//
// The paper evaluates page blocking in a three-device lab cell. This
// example drops the same A/C/M triple into a population-scale scatternet
// mesh (src/radio/crowd.hpp): thousands of background endpoints holding
// piconet links, a configurable slice of them discoverable, a few running
// periodic inquiry storms. Two effects push on the attack as density grows:
//
//   * medium contention — crowd pages and inquiries interleave with the
//     attacker's on the shared medium Rng stream and scheduler;
//   * co-channel collisions — modelled as iid frame loss scaling with the
//     population (--collision-rate per-device increment, capped at 35 %),
//     which the LMP/pairing traffic must survive through the baseband ARQ.
//
// For each population in the sweep the example runs a Monte-Carlo campaign
// of baseline page-race trials ("without page blocking") and full
// page-blocking attacks, printing the MITM success-rate-vs-density surface
// with Wilson 95% intervals.
//
// Env:
//   BLAP_POPULATION  comma list of crowd sizes  (default 0,100,1000,10000)
//   BLAP_TRIALS      trials per cell            (default 40)
//   BLAP_JOBS        worker threads
//   BLAP_SEED        campaign root seed         (default 1)
//
//   crowd_scenario [--json FILE] [--collision-rate R] [--smoke [N]]
//
// --smoke [N] runs one deterministic mega-crowd pass (default N=100000):
// populate, bring the piconets up, storm, run one full page-blocking
// attack, and report wall time — the CI's "a 100k-device crowd completes"
// gate. Results are bit-identical for any BLAP_JOBS value.
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "faults/fault_plan.hpp"
#include "radio/crowd.hpp"
#include "snapshot/page_blocking_trial.hpp"
#include "snapshot/scenarios.hpp"

namespace {

using namespace blap;

// Crowd seeds must not collide with the scenario's own derived streams.
constexpr std::uint64_t kCrowdSeedSalt = 0xC05D'C05D'C05D'C05DULL;

std::vector<std::size_t> population_axis() {
  std::vector<std::size_t> axis;
  const char* env = std::getenv("BLAP_POPULATION");
  std::string spec = env != nullptr ? env : "0,100,1000,10000";
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(pos, comma == std::string::npos ? spec.npos
                                                                          : comma - pos);
    if (!token.empty()) axis.push_back(std::strtoull(token.c_str(), nullptr, 0));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (axis.empty()) axis.push_back(0);
  return axis;
}

radio::CrowdConfig crowd_config(std::size_t population, std::uint64_t seed) {
  radio::CrowdConfig config;
  config.population = population;
  config.seed = seed ^ kCrowdSeedSalt;
  return config;
}

double collision_loss(double rate, std::size_t population) {
  const double loss = rate * static_cast<double>(population);
  return loss > 0.35 ? 0.35 : loss;
}

int run_smoke(std::size_t population, double collision_rate) {
  using namespace blap::bench;
  const auto wall_start = std::chrono::steady_clock::now();
  banner("CROWD SMOKE — " + std::to_string(population) + " devices");

  snapshot::ScenarioParams params;
  params.kind = snapshot::ScenarioParams::Kind::kAbc;
  params.table = snapshot::ProfileTable::kTable2;
  params.profile_index = 5;
  params.accessory_transport = core::TransportKind::kUart;
  params.accessory_has_dump = true;
  Scenario s = snapshot::build_scenario(1, params);

  radio::Crowd crowd(s.sim->scheduler(), s.sim->medium(),
                     crowd_config(population, /*seed=*/1));
  crowd.populate();
  s.sim->run_for(3 * radio::CrowdConfig{}.page_scan_interval);
  crowd.start(s.sim->now() + 30 * kSecond);

  const double loss = collision_loss(collision_rate, population);
  if (loss > 0.0) {
    faults::FaultPlan plan;
    plan.seed = 1;
    plan.loss = loss;
    s.sim->set_fault_plan(plan);
  }
  const auto report =
      core::PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {});
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  const auto& stats = crowd.stats();
  std::printf("population            %zu (attached: %zu endpoints on medium)\n",
              crowd.population(), s.sim->medium().endpoint_count());
  std::printf("piconet links up      %zu (%zu page(s) failed)\n", stats.links_established,
              stats.pages_failed);
  std::printf("inquiry storms        %zu started, %zu responses heard\n",
              stats.inquiries_started, stats.inquiry_responses_heard);
  std::printf("collision loss        %.1f%%\n", 100.0 * loss);
  std::printf("attack                ploc=%d pairing=%d mitm=%d\n", report.ploc_established,
              report.pairing_completed, report.mitm_established);
  std::printf("virtual time          %.1f s, wall %.2f s\n",
              static_cast<double>(s.sim->now()) * 1e-6, wall_s);

  if (stats.links_established == 0 || stats.inquiries_started == 0) {
    std::fprintf(stderr, "error: crowd failed to form (no links or no storms)\n");
    return 1;
  }
  if (!report.ploc_established) {
    std::fprintf(stderr, "error: attacker's page never landed through the crowd\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blap::bench;

  const char* json_path = nullptr;
  double collision_rate = 2e-5;
  bool smoke = false;
  std::size_t smoke_population = 100'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    else if (std::strcmp(argv[i], "--collision-rate") == 0 && i + 1 < argc)
      collision_rate = std::strtod(argv[++i], nullptr);
    else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      if (i + 1 < argc && argv[i + 1][0] != '-')
        smoke_population = std::strtoull(argv[++i], nullptr, 0);
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE] [--collision-rate R] [--smoke [N]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (const char* env = std::getenv("BLAP_POPULATION"); smoke && env != nullptr)
    smoke_population = std::strtoull(env, nullptr, 0);
  if (smoke) return run_smoke(smoke_population, collision_rate);

  const std::size_t trials = static_cast<std::size_t>(trial_count(40));
  std::uint64_t root = 1;
  if (const char* env = std::getenv("BLAP_SEED")) root = std::strtoull(env, nullptr, 0);
  const auto axis = population_axis();

  banner("CROWD SCENARIO — MITM success vs crowd density (" + std::to_string(trials) +
         " trials/cell)");
  std::printf("%-12s | %-7s | %-28s | %-28s\n", "", "", "without page blocking",
              "with page blocking");
  std::printf("%-12s | %-7s | %-9s %-18s | %-9s %-18s\n", "population", "loss", "rate",
              "wilson95", "rate", "wilson95");
  std::printf("%s\n", std::string(92, '-').c_str());

  snapshot::ScenarioParams params;
  params.kind = snapshot::ScenarioParams::Kind::kAbc;
  params.table = snapshot::ProfileTable::kTable2;
  params.profile_index = 5;
  params.accessory_transport = core::TransportKind::kUart;
  params.accessory_has_dump = true;
  params.baseline_bias = core::table2_profiles()[5].baseline_mitm_success;

  std::string json_all;
  std::size_t cell = 0;
  for (const std::size_t population : axis) {
    const double loss = collision_loss(collision_rate, population);
    auto run_cell = [&](const char* kind, bool with_blocking) {
      campaign::CampaignConfig cfg;
      cfg.label = "crowd N=" + std::to_string(population) + " " + kind;
      cfg.trials = trials;
      cfg.root_seed = campaign::trial_seed(root, cell++);
      return campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
        Scenario s = snapshot::build_scenario(spec.seed, params);
        radio::Crowd crowd(s.sim->scheduler(), s.sim->medium(),
                           crowd_config(population, spec.seed));
        crowd.populate();
        s.sim->run_for(3 * radio::CrowdConfig{}.page_scan_interval);
        crowd.start(s.sim->now() + 60 * kSecond);
        return snapshot::PageBlockingTrial{.attack = with_blocking, .loss = loss}(spec, s);
      });
    };
    const auto baseline = run_cell("baseline", false);
    const auto attack = run_cell("page blocking", true);
    std::printf("%-12zu | %5.1f%% | %7.1f%%  [%5.1f%%, %5.1f%%]  | %7.1f%%  [%5.1f%%, %5.1f%%]\n",
                population, 100.0 * loss, 100.0 * baseline.success_rate,
                100.0 * baseline.ci.low, 100.0 * baseline.ci.high,
                100.0 * attack.success_rate, 100.0 * attack.ci.low,
                100.0 * attack.ci.high);
    json_all += baseline.to_json();
    json_all += attack.to_json();
  }

  if (json_path != nullptr) {
    std::ofstream out(json_path);
    out << json_all;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path);
      return 1;
    }
    std::printf("\nsurface JSON -> %s\n", json_path);
  }
  return 0;
}
