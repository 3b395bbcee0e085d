#include "snapshot/scenarios.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace blap::snapshot {
namespace {

constexpr auto kAttackerPageScanInterval = static_cast<SimTime>(1.28 * kSecond);

}  // namespace

Scenario build_abc_scenario(std::uint64_t seed, const core::DeviceProfile& victim_profile,
                            core::TransportKind accessory_transport,
                            bool accessory_has_dump, double baseline_bias) {
  Scenario s;
  s.sim = std::make_unique<core::Simulation>(seed);

  core::DeviceSpec a =
      core::attacker_profile().to_spec("attacker-A", *BdAddr::parse("aa:aa:aa:00:00:01"));
  a.controller.page_scan_interval = kAttackerPageScanInterval;

  core::DeviceSpec c = core::accessory_profile().to_spec(
      "accessory-C", *BdAddr::parse("00:1b:7d:da:71:0a"),
      ClassOfDevice(ClassOfDevice::kHandsFree));
  c.transport = accessory_transport;
  c.host.hci_dump_available = accessory_has_dump;
  c.host.io_capability = hci::IoCapability::kNoInputNoOutput;
  c.controller.page_scan_interval =
      core::accessory_interval_for_bias(baseline_bias, a.controller.page_scan_interval);

  core::DeviceSpec m =
      victim_profile.to_spec("victim-M", *BdAddr::parse("48:90:12:34:56:78"));

  s.attacker = &s.sim->add_device(a);
  s.accessory = &s.sim->add_device(c);
  s.target = &s.sim->add_device(m);
  return s;
}

Scenario build_extraction_scenario(std::uint64_t seed,
                                   const core::DeviceProfile& accessory_profile_row) {
  Scenario s;
  s.sim = std::make_unique<core::Simulation>(seed);
  core::DeviceSpec a =
      core::attacker_profile().to_spec("attacker-A", *BdAddr::parse("aa:aa:aa:00:00:01"));
  core::DeviceSpec c = accessory_profile_row.to_spec(
      "accessory-C", *BdAddr::parse("00:1b:7d:da:71:0a"),
      ClassOfDevice(ClassOfDevice::kHandsFree));
  core::DeviceSpec m =
      core::table2_profiles()[5].to_spec("victim-M", *BdAddr::parse("48:90:12:34:56:78"));
  s.attacker = &s.sim->add_device(a);
  s.accessory = &s.sim->add_device(c);
  s.target = &s.sim->add_device(m);
  return s;
}

const core::DeviceProfile* resolve_profile(const ScenarioParams& params) {
  const auto& rows = params.table == ProfileTable::kTable1 ? core::table1_profiles()
                                                           : core::table2_profiles();
  if (params.profile_index >= rows.size()) return nullptr;
  return &rows[params.profile_index];
}

Scenario build_scenario(std::uint64_t seed, const ScenarioParams& params) {
  const core::DeviceProfile* row = resolve_profile(params);
  assert(row != nullptr && "profile_index out of range — validate with resolve_profile()");
  if (params.kind == ScenarioParams::Kind::kExtraction)
    return build_extraction_scenario(seed, *row);
  return build_abc_scenario(seed, *row, params.accessory_transport,
                            params.accessory_has_dump, params.baseline_bias);
}

std::string encode_scenario(const ScenarioParams& params) {
  char bias[64];
  // %a: exact hex-float round trip through strtod, independent of locale
  // and of decimal shortest-representation subtleties.
  std::snprintf(bias, sizeof bias, "%a", params.baseline_bias);
  std::string out;
  out += "kind=";
  out += params.kind == ScenarioParams::Kind::kExtraction ? "extraction" : "abc";
  out += " table=";
  out += params.table == ProfileTable::kTable1 ? "1" : "2";
  out += " profile=" + std::to_string(params.profile_index);
  out += " transport=";
  out += params.accessory_transport == core::TransportKind::kUsb ? "usb" : "uart";
  out += " dump=";
  out += params.accessory_has_dump ? "1" : "0";
  out += " bias=";
  out += bias;
  return out;
}

std::optional<ScenarioParams> decode_scenario(std::string_view text) {
  ScenarioParams params;
  bool have_kind = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    std::size_t end = text.find(' ', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = text.substr(pos, end - pos);
    pos = end;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = token.substr(0, eq);
    const std::string value(token.substr(eq + 1));
    if (value.empty()) return std::nullopt;

    if (key == "kind") {
      if (value == "abc") params.kind = ScenarioParams::Kind::kAbc;
      else if (value == "extraction") params.kind = ScenarioParams::Kind::kExtraction;
      else return std::nullopt;
      have_kind = true;
    } else if (key == "table") {
      if (value == "1") params.table = ProfileTable::kTable1;
      else if (value == "2") params.table = ProfileTable::kTable2;
      else return std::nullopt;
    } else if (key == "profile") {
      char* rest = nullptr;
      const unsigned long long n = std::strtoull(value.c_str(), &rest, 10);
      if (rest == value.c_str() || *rest != '\0') return std::nullopt;
      params.profile_index = static_cast<std::size_t>(n);
    } else if (key == "transport") {
      if (value == "uart") params.accessory_transport = core::TransportKind::kUart;
      else if (value == "usb") params.accessory_transport = core::TransportKind::kUsb;
      else return std::nullopt;
    } else if (key == "dump") {
      if (value == "1") params.accessory_has_dump = true;
      else if (value == "0") params.accessory_has_dump = false;
      else return std::nullopt;
    } else if (key == "bias") {
      char* rest = nullptr;
      params.baseline_bias = std::strtod(value.c_str(), &rest);
      if (rest == value.c_str() || *rest != '\0') return std::nullopt;
      // The accessory's page-scan interval is derived from the bias: refuse
      // one it is undefined for (NaN, outside [0, 1), or too close to 1).
      if (!core::bias_has_interval(params.baseline_bias, kAttackerPageScanInterval))
        return std::nullopt;
    } else {
      return std::nullopt;  // unknown key: refuse to half-understand a bundle
    }
  }
  if (!have_kind || resolve_profile(params) == nullptr) return std::nullopt;
  return params;
}

}  // namespace blap::snapshot
