// Supplementary bench: the page-scan race model behind Table II's baseline.
//
// Sweeps the accessory/attacker page-scan interval ratio and measures the
// attacker's MITM win rate in full simulation, against the closed-form
// prediction P(A first) = c/(2a) (c<=a) or 1 - a/(2c) (c>=a). This is the
// mechanism that produces the paper's footnote-1 observation ("success rate
// of establishing the MITM connection shows 42~60%") — and the reason the
// page blocking attack's determinism matters.
//
// Runs on the campaign engine (BLAP_JOBS workers, per-index seeds), so the
// measured column is bit-identical for any worker count.
#include "bench_util.hpp"

#include "snapshot/page_blocking_trial.hpp"

int main() {
  using namespace blap;
  using namespace blap::bench;
  using namespace blap::core;

  const int trials = trial_count(120);
  banner("Supplementary — MITM page-race win rate vs scan-interval ratio");
  std::printf("%-12s %-14s %-14s %-10s %s\n", "c/a ratio", "predicted", "measured",
              "|error|", "wilson95");
  std::printf("%s\n", std::string(78, '-').c_str());

  const SimTime a_interval = static_cast<SimTime>(1.28 * kSecond);
  bool ok = true;
  std::uint64_t seed = 70'000;
  for (double ratio : {0.5, 0.75, 0.84, 1.0, 1.25, 1.5, 2.0}) {
    const double predicted = ratio <= 1.0 ? ratio / 2.0 : 1.0 - 1.0 / (2.0 * ratio);

    campaign::CampaignConfig cfg;
    cfg.label = "race c/a=" + std::to_string(ratio);
    cfg.trials = static_cast<std::size_t>(trials);
    cfg.root_seed = seed;
    cfg.seed_fn = sequential_seed;
    seed += static_cast<std::uint64_t>(trials);

    const auto summary = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
      Scenario s;
      s.sim = std::make_unique<Simulation>(spec.seed);
      DeviceSpec a = attacker_profile().to_spec("attacker", *BdAddr::parse("aa:aa:aa:00:00:01"));
      a.controller.page_scan_interval = a_interval;
      DeviceSpec c = accessory_profile().to_spec("headset", *BdAddr::parse("00:1b:7d:da:71:0a"),
                                                 ClassOfDevice(ClassOfDevice::kHandsFree));
      c.host.io_capability = hci::IoCapability::kNoInputNoOutput;
      c.controller.page_scan_interval = static_cast<SimTime>(ratio * static_cast<double>(a_interval));
      DeviceSpec m = table2_profiles()[5].to_spec("victim", *BdAddr::parse("48:90:12:34:56:78"));
      s.attacker = &s.sim->add_device(a);
      s.accessory = &s.sim->add_device(c);
      s.target = &s.sim->add_device(m);
      return snapshot::PageBlockingTrial{}(spec, s);
    });

    const double measured = summary.success_rate;
    const double error = std::abs(measured - predicted);
    // Tolerance: 3.5 sigma of binomial sampling noise (floor 0.08) — a
    // fixed band would misfire at low trial counts.
    const double sigma = std::sqrt(predicted * (1.0 - predicted) / trials);
    const double tolerance = std::max(0.08, 3.5 * sigma);
    ok &= error < tolerance;
    std::printf("%-12.2f %-14.3f %-14.3f %-10.3f [%.3f, %.3f]\n", ratio, predicted,
                measured, error, summary.ci.low, summary.ci.high);
  }

  std::printf("\n(%d trials per point; set BLAP_TRIALS to tighten.)\n", trials);
  std::printf("Race model matches closed form: %s\n", ok ? "HOLDS" : "DOES NOT HOLD");
  return ok ? 0 : 1;
}
