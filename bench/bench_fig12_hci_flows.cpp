// Reproduces FIG. 12: "HCI dump logs for normal pairing and pairing under
// page blocking attack".
//
// Runs both scenarios against the same victim and prints the victim-side
// frame tables. The distinguishing pattern asserted (paper §VI-B2):
//   (a) normal   : HCI_Create_Connection ... HCI_Authentication_Requested
//   (b) attacked : HCI_Connection_Request + HCI_Accept_Connection_Request
//                  ... HCI_Authentication_Requested
// i.e. under attack the victim is the pairing initiator AND the connection
// responder simultaneously.
#include "bench_util.hpp"

int main() {
  using namespace blap;
  using namespace blap::bench;

  // --- (a) normal pairing ----------------------------------------------------
  Scenario normal = make_scenario(12, core::table2_profiles()[5],
                                  core::TransportKind::kUart, true);
  normal.attacker->set_radio_enabled(false);
  normal.target->host().enable_snoop(true);
  bool done = false;
  normal.target->host().pair(normal.accessory->address(), [&](hci::Status) { done = true; });
  normal.sim->run_for(20 * kSecond);

  banner("FIG. 12a — HCI dump for normal pairing (victim M)");
  std::printf("%s\n", normal.target->host().snoop().format_table().c_str());
  const auto flow_a = core::classify_pairing_flow(normal.target->host().snoop());
  std::printf("classification: %s\n", to_string(flow_a.flow));

  // --- (b) pairing under page blocking --------------------------------------
  Scenario attacked = make_scenario(13, core::table2_profiles()[5],
                                    core::TransportKind::kUart, true);
  const auto report = core::PageBlockingAttack::run(*attacked.sim, *attacked.attacker,
                                                    *attacked.accessory, *attacked.target, {});

  banner("FIG. 12b — HCI dump for pairing under page blocking attack (victim M)");
  std::printf("%s\n", attacked.target->host().snoop().format_table().c_str());
  std::printf("classification: %s\n", to_string(report.m_flow));

  const bool ok = flow_a.flow == core::PairingFlow::kNormal &&
                  report.m_flow == core::PairingFlow::kPageBlocked &&
                  report.mitm_established;
  std::printf("\nFig. 12 distinguishing pattern %s\n", ok ? "HOLDS" : "DOES NOT HOLD");
  return ok ? 0 : 1;
}
