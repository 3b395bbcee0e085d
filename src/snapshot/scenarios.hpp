// scenarios.hpp — the shared scenario registry.
//
// Every path that needs a simulation topology — the reproduction benches,
// the snapshot-fork campaign runner, and the blap-replay tool — must build
// the *same* topology from the same inputs, or snapshot fingerprints and
// record–replay verdicts stop lining up. This header is the single source
// of those topologies:
//
//   * build_abc_scenario()        — the A/C/M triple of the paper's §III
//                                   (Table II page-blocking cells).
//   * build_extraction_scenario() — the variant with a confirm-capable
//                                   accessory (Table I extraction cells).
//   * ScenarioParams + build_scenario() — a serializable description of
//     either, so a replay bundle's one-line manifest can name the exact
//     topology a failure was recorded on and rebuild it years later.
//
// bench/bench_util.hpp delegates its historical make_scenario() /
// make_extraction_scenario() helpers here, so bench outputs are unchanged.
//
// Determinism contract: builders consume *zero* draws from the simulation's
// Rng streams (device bring-up is fixed-schedule HCI traffic), which is what
// makes a warm snapshot seed-independent: restore + reseed(trial_seed) is
// byte-identical to a fresh build with trial_seed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/device.hpp"
#include "core/profiles.hpp"

namespace blap::snapshot {

/// A built simulation plus named roles. The Device pointers stay valid for
/// the simulation's lifetime (Simulation owns its devices) — across any
/// number of snapshot restores and reseeds.
struct Scenario {
  std::unique_ptr<core::Simulation> sim;
  core::Device* attacker = nullptr;
  core::Device* accessory = nullptr;
  core::Device* target = nullptr;
};

/// Standard A/C/M triple: Nexus 5x attacker, hands-free accessory, victim
/// from `victim_profile`. `baseline_bias` calibrates the accessory's page
/// race for Table II baselines.
[[nodiscard]] Scenario build_abc_scenario(std::uint64_t seed,
                                          const core::DeviceProfile& victim_profile,
                                          core::TransportKind accessory_transport,
                                          bool accessory_has_dump,
                                          double baseline_bias = 0.5);

/// Accessory variant with a confirm-capable UI (for extraction scenarios,
/// where C must pass Numeric Comparison pairing with M).
[[nodiscard]] Scenario build_extraction_scenario(
    std::uint64_t seed, const core::DeviceProfile& accessory_profile_row);

/// Which published table a profile row comes from.
enum class ProfileTable : std::uint8_t { kTable1, kTable2 };

/// A scenario as data: everything build_scenario() needs, and nothing it
/// doesn't. Round-trips through a one-line text form (encode/decode) for
/// replay-bundle manifests.
struct ScenarioParams {
  enum class Kind : std::uint8_t {
    kAbc,         // build_abc_scenario
    kExtraction,  // build_extraction_scenario
  };
  Kind kind = Kind::kAbc;
  /// Row lookup for the kAbc victim / the kExtraction accessory.
  ProfileTable table = ProfileTable::kTable2;
  std::size_t profile_index = 0;
  // kAbc only:
  core::TransportKind accessory_transport = core::TransportKind::kUart;
  bool accessory_has_dump = true;
  double baseline_bias = 0.5;

  [[nodiscard]] bool operator==(const ScenarioParams&) const = default;
};

/// Resolve the referenced profile row; nullptr when profile_index is out of
/// the table's range.
[[nodiscard]] const core::DeviceProfile* resolve_profile(const ScenarioParams& params);

/// Build the described scenario. Aborts via assert on an out-of-range
/// profile_index — validate with resolve_profile() first for untrusted
/// input (replay bundles).
[[nodiscard]] Scenario build_scenario(std::uint64_t seed, const ScenarioParams& params);

/// One-line `key=value` text form, e.g.
///   `kind=abc table=2 profile=5 transport=uart dump=1 bias=0x1p-1`.
/// The bias is formatted as a C99 hex-float so the double round-trips
/// exactly through the manifest; decode refuses a bias the accessory's
/// interval is undefined for (see core::bias_has_interval).
[[nodiscard]] std::string encode_scenario(const ScenarioParams& params);
[[nodiscard]] std::optional<ScenarioParams> decode_scenario(std::string_view text);

}  // namespace blap::snapshot
