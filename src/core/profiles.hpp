// profiles.hpp — the device matrix of the paper's evaluation (§VI).
//
// Every tested unit from Table I (link key extraction) and Table II (page
// blocking) is modelled as a DeviceProfile: OS, host stack, Bluetooth
// version regime, transport kind, whether the platform offers an HCI dump,
// whether superuser privilege is needed for the extraction, and — for the
// Table II victims — the measured baseline MITM success rate that calibrates
// the page-race timing model.
#pragma once

#include <string>
#include <vector>

#include "core/device.hpp"

namespace blap::core {

struct DeviceProfile {
  std::string model;       // "Nexus 5x"
  std::string os;          // "Android 8"
  std::string host_stack;  // "Bluedroid" / "Microsoft Bluetooth Driver" / ...
  host::BtVersion version = host::BtVersion::kV5_0;
  TransportKind transport = TransportKind::kUart;
  bool hci_dump_available = true;
  /// Table I rightmost column: does extraction need superuser privilege?
  bool su_required = false;
  /// Table II column 1 (fraction); 0 when the device is not a Table II row.
  double baseline_mitm_success = 0.0;

  /// Build a DeviceSpec for this profile with the given identity.
  [[nodiscard]] DeviceSpec to_spec(const std::string& device_name, const BdAddr& address,
                                   ClassOfDevice cod = ClassOfDevice(
                                       ClassOfDevice::kMobilePhone)) const;
};

/// The nine Table I rows (vulnerable to link key extraction).
[[nodiscard]] const std::vector<DeviceProfile>& table1_profiles();

/// The seven Table II victim rows (page blocking success rates).
[[nodiscard]] const std::vector<DeviceProfile>& table2_profiles();

/// The attacker device of the paper's testbed: Nexus 5x, Android 6,
/// modified bluedroid.
[[nodiscard]] DeviceProfile attacker_profile();

/// A typical soft-target accessory C: a hands-free car-kit / headset.
[[nodiscard]] DeviceProfile accessory_profile();

/// Convert a Table II baseline success probability p = P(attacker answers
/// the page first) into the accessory's page-scan interval, given the
/// attacker's interval. With latencies uniform over each interval:
///   p <= 1/2 :  c = 2 p a      (accessory scans faster, usually wins)
///   p >  1/2 :  c = a / (2(1-p))
[[nodiscard]] SimTime accessory_interval_for_bias(double attacker_win_probability,
                                                  SimTime attacker_interval);

/// True when accessory_interval_for_bias() is defined for these inputs: the
/// probability is in [0, 1) (so finite) and the interval fits a SimTime.
/// Check untrusted input (a replay bundle's bias) with this first.
[[nodiscard]] bool bias_has_interval(double attacker_win_probability,
                                     SimTime attacker_interval);

}  // namespace blap::core
