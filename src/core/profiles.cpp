#include "core/profiles.hpp"

namespace blap::core {

DeviceSpec DeviceProfile::to_spec(const std::string& device_name, const BdAddr& address,
                                  ClassOfDevice cod) const {
  DeviceSpec spec;
  spec.name = device_name;
  spec.address = address;
  spec.class_of_device = cod;
  spec.transport = transport;
  spec.host.version = version;
  spec.host.hci_dump_available = hci_dump_available;
  // Bluetooth 4.1+ stacks support Secure Connections; the v5.0 profile rows
  // therefore pair on P-256 and authenticate with h4/h5. Both attacks work
  // regardless (they never touch the cryptography).
  spec.controller.secure_connections = version == host::BtVersion::kV5_0;
  return spec;
}

const std::vector<DeviceProfile>& table1_profiles() {
  static const std::vector<DeviceProfile> profiles = {
      {"Nexus 5x", "Android 8", "Bluedroid", host::BtVersion::kV4_2, TransportKind::kUart, true,
       false, 0.0},
      {"LG V50", "Android 9", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart, true,
       false, 0.0},
      {"Galaxy S8", "Android 9", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart, true,
       false, 0.0},
      {"Pixel 2 XL", "Android 11", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart,
       true, false, 0.0},
      {"LG VELVET", "Android 11", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart,
       true, false, 0.0},
      {"Galaxy s21", "Android 11", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart,
       true, false, 0.0},
      {"QSENN CSR V4.0", "Windows 10", "Microsoft Bluetooth Driver", host::BtVersion::kV5_0,
       TransportKind::kUsb, false, false, 0.0},
      {"QSENN CSR V4.0", "Windows 10", "CSR harmony", host::BtVersion::kV5_0,
       TransportKind::kUsb, false, false, 0.0},
      {"QSENN CSR V4.0", "Ubuntu 20.04", "BlueZ", host::BtVersion::kV5_0, TransportKind::kUsb,
       true, true, 0.0},
  };
  return profiles;
}

const std::vector<DeviceProfile>& table2_profiles() {
  static const std::vector<DeviceProfile> profiles = {
      {"iPhone Xs", "iOS 14.4.2", "Apple", host::BtVersion::kV5_0, TransportKind::kUart,
       false /* iOS provides no HCI dump (paper analyzed A's dump instead) */, false, 0.52},
      {"Nexus 5x", "Android 8", "Bluedroid", host::BtVersion::kV4_2, TransportKind::kUart, true,
       false, 0.52},
      {"LG V50", "Android 9", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart, true,
       false, 0.57},
      {"Galaxy S8", "Android 9", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart, true,
       false, 0.42},
      {"Pixel 2 XL", "Android 11", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart,
       true, false, 0.60},
      {"LG VELVET", "Android 11", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart,
       true, false, 0.60},
      {"Galaxy s21", "Android 11", "Bluedroid", host::BtVersion::kV5_0, TransportKind::kUart,
       true, false, 0.51},
  };
  return profiles;
}

DeviceProfile attacker_profile() {
  return {"Nexus 5x (attacker)", "Android 6", "Bluedroid (modified)", host::BtVersion::kV4_2,
          TransportKind::kUart, true, false, 0.0};
}

DeviceProfile accessory_profile() {
  return {"Car-kit headset", "RTOS", "Vendor stack", host::BtVersion::kV4_2,
          TransportKind::kUart, false, false, 0.0};
}

namespace {

/// The interval accessory_interval_for_bias() returns, before the cast.
double interval_for_bias(double p, SimTime attacker_interval) {
  const double a = static_cast<double>(attacker_interval);
  // P(A first) = c / (2a) for c <= a, and 1 - a / (2c) for c >= a.
  const double c = p <= 0.5 ? 2.0 * p * a : a / (2.0 * (1.0 - p));
  return c < 1.0 ? 1.0 : c;
}

}  // namespace

SimTime accessory_interval_for_bias(double attacker_win_probability, SimTime attacker_interval) {
  return static_cast<SimTime>(interval_for_bias(attacker_win_probability, attacker_interval));
}

bool bias_has_interval(double attacker_win_probability, SimTime attacker_interval) {
  const double p = attacker_win_probability;
  // NaN fails both comparisons; 2^64 is the least double SimTime cannot hold.
  return p >= 0.0 && p < 1.0 && interval_for_bias(p, attacker_interval) < 0x1p64;
}

}  // namespace blap::core
