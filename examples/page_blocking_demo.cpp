// page_blocking_demo.cpp — the paper's §V attack, narrated.
//
//   $ ./page_blocking_demo
//
// A spoofs C, pages the victim M first, and holds a Physical-Layer-Only
// Connection. When M's user pairs "with C", the pairing request travels down
// the existing link — straight to the attacker — and downgrades to Just
// Works because A declares NoInputNoOutput. The demo ends by printing M's
// HCI dump in the paper's Fig. 12b format.
#include <cstdio>

#include "core/page_blocking.hpp"

int main() {
  using namespace blap;
  using namespace blap::core;

  Simulation sim(5);

  DeviceSpec a_spec = attacker_profile().to_spec("attacker", *BdAddr::parse("aa:aa:aa:00:00:01"));
  DeviceSpec c_spec = accessory_profile().to_spec("headset", *BdAddr::parse("00:1b:7d:da:71:0a"),
                                                  ClassOfDevice(ClassOfDevice::kHandsFree));
  c_spec.host.io_capability = hci::IoCapability::kNoInputNoOutput;
  DeviceSpec m_spec =
      table2_profiles()[5].to_spec("velvet", *BdAddr::parse("48:90:12:34:56:78"));

  Device& attacker = sim.add_device(a_spec);
  Device& accessory = sim.add_device(c_spec);
  Device& target = sim.add_device(m_spec);

  std::printf("Scenario: M = LG VELVET (BT 5.0), C = headset %s, A spoofing C\n\n",
              accessory.address().to_string().c_str());

  const auto report = PageBlockingAttack::run(sim, attacker, accessory, target, {});

  std::printf("Attack transcript:\n");
  std::printf("  [%c] A paged M and held the PLOC (connection initiator)\n",
              report.ploc_established ? '+' : '-');
  std::printf("  [%c] M's user-initiated pairing with C completed (%s)\n",
              report.pairing_completed ? '+' : '-', hci::to_string(report.m_pair_status));
  std::printf("  [%c] ...but it paired with A: MITM established\n",
              report.mitm_established ? '+' : '-');
  std::printf("  [%c] association downgraded to Just Works\n",
              report.downgraded_to_just_works ? '+' : '-');
  std::printf("  [%c] victim popup: %s, comparison value shown: %s\n",
              report.popup_shown && !report.popup_had_numeric_value ? '+' : '-',
              report.popup_shown ? "shown" : "none",
              report.popup_had_numeric_value ? "yes" : "no (nothing to distrust)");
  std::printf("  [%c] attacker now holds M's link key for persistent impersonation\n",
              report.attacker_holds_link_key ? '+' : '-');

  std::printf("\nVictim's HCI dump (Fig. 12b pattern — %s):\n%s\n",
              to_string(report.m_flow), target.host().snoop().format_table().c_str());

  return report.mitm_established ? 0 : 1;
}
