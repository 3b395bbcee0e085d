// page_blocking.hpp — the paper's second attack (§V) and the Table II race.
//
// Two entry points:
//
//   * run() — the full page blocking attack: A (NoInputNoOutput, spoofing C)
//     pages M first and holds a Physical-Layer-Only Connection; when M's
//     user pairs "with C", M's host reuses the existing ACL and the pairing
//     lands on A, downgraded to Just Works. Reported with the Fig. 12b flow
//     check on M's HCI dump.
//
//   * baseline_trial() — one "without page blocking" trial: A and C both
//     online with the same BD_ADDR; M pages; the page-scan race decides who
//     gets the connection (the 42–60 % column of Table II).
#pragma once

#include "core/device.hpp"
#include "core/flow_classifier.hpp"
#include "core/profiles.hpp"

namespace blap::core {

struct PageBlockingOptions {
  /// How long A's host holds the PLOC (the paper's PoC uses 10 s).
  SimTime ploc_hold = 10 * kSecond;
  /// When M's user initiates the pairing, relative to PLOC establishment.
  SimTime pairing_delay = 3 * kSecond;
  /// Send L2CAP echo "dummy data" so a long PLOC survives M's idle timeout
  /// (the paper's §VI-B2 keep-alive discussion).
  bool keepalive = false;
  SimTime keepalive_interval = 4 * kSecond;
  /// Overall scenario budget.
  SimTime window = 60 * kSecond;
};

struct PageBlockingReport {
  bool ploc_established = false;       // A's page reached M
  bool pairing_completed = false;      // M's pair() returned success
  bool mitm_established = false;       // ...and the peer is actually A
  bool downgraded_to_just_works = false;
  bool popup_shown = false;            // M's user saw any popup
  bool popup_had_numeric_value = false;
  PairingFlow m_flow = PairingFlow::kNone;  // Fig. 12 classification
  bool attacker_holds_link_key = false;     // persistent impersonation ready
  hci::Status m_pair_status = hci::Status::kSuccess;
};

class PageBlockingAttack {
 public:
  /// Run the full attack. `accessory` is the legitimate C being impersonated
  /// (present on the air, answering M's inquiry, as in the paper's Fig. 6b).
  static PageBlockingReport run(Simulation& sim, Device& attacker, Device& accessory,
                                Device& target, const PageBlockingOptions& options = {});

  /// One baseline MITM trial without page blocking. Returns true when the
  /// attacker won the page race (M's pairing landed on A).
  static bool baseline_trial(Simulation& sim, Device& attacker, Device& accessory,
                             Device& target);
};

}  // namespace blap::core
