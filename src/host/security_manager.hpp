// security_manager.hpp — the host's bonded-device database.
//
// Bluedroid persists bonds in /data/misc/bluedroid/bt_config.conf; BlueZ in
// /var/lib/bluetooth/<adapter>/<peer>/info. Both store the 128-bit link key
// in plaintext next to the peer's name and service UUIDs. BLAP reproduces the
// bt_config.conf shape because the paper's impersonation step (Fig. 10)
// works by *writing a fake bonding entry* into exactly this file: BD_ADDR of
// the victim, the extracted link key, and the PAN service UUIDs.
//
// Key-lifetime policy reproduced from real stacks: a bond is deleted when
// authentication completes with Authentication Failure (0x05) or PIN or Key
// Missing (0x06) — but NOT on timeouts. That asymmetry is why the extraction
// attack stalls the challenge instead of answering it wrongly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bdaddr.hpp"
#include "common/scheduler.hpp"
#include "common/state_io.hpp"
#include "common/uuid.hpp"
#include "crypto/keys.hpp"
#include "hci/constants.hpp"

namespace blap::host {

/// How the host retries a pairing that failed for *channel* reasons (the
/// fault-injection layer's timeouts), as opposed to cryptographic ones.
/// Backoff doubles per attempt: initial_backoff, 2x, 4x, ...
struct RetryPolicy {
  unsigned max_attempts = 3;          // total tries, including the first
  SimTime initial_backoff = kSecond;  // wait before the first retry
};

struct BondRecord {
  BdAddr address;
  std::string name;
  crypto::LinkKey link_key{};
  crypto::LinkKeyType key_type = crypto::LinkKeyType::kUnauthenticatedCombinationP192;
  std::vector<Uuid> services;
};

class SecurityManager {
 public:
  /// Store (or overwrite) a bond.
  void store_bond(BondRecord record);

  /// The stored link key for a peer, if bonded.
  [[nodiscard]] std::optional<crypto::LinkKey> link_key_for(const BdAddr& address) const;

  [[nodiscard]] const BondRecord* bond_for(const BdAddr& address) const;
  [[nodiscard]] bool is_bonded(const BdAddr& address) const;
  void remove_bond(const BdAddr& address);
  [[nodiscard]] std::vector<BondRecord> bonds() const;
  [[nodiscard]] std::size_t bond_count() const { return bonds_.size(); }

  /// Apply the stack's key-invalidation policy for an authentication result.
  /// Returns true if the bond was purged.
  bool on_authentication_result(const BdAddr& address, hci::Status status);

  // --- pairing retry policy (fault-recovery path) ---------------------------

  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// True when `status` is transient channel trouble (a timeout family code)
  /// rather than a cryptographic or policy failure. Only transient failures
  /// are worth retrying — retrying kAuthenticationFailure would hammer a peer
  /// that rejected us on purpose.
  [[nodiscard]] static bool is_transient_failure(hci::Status status);

  /// Record a failed pairing attempt toward a peer. Returns the backoff to
  /// wait before the next attempt, or nullopt when the failure is permanent
  /// or the attempt budget is spent (the caller should surface the error).
  [[nodiscard]] std::optional<SimTime> note_pairing_failure(const BdAddr& address,
                                                            hci::Status status);

  /// A successful pairing resets the peer's failure counter.
  void note_pairing_success(const BdAddr& address);

  [[nodiscard]] unsigned pairing_attempts(const BdAddr& address) const;

  /// Serialize in bt_config.conf format (paper Fig. 10):
  ///   [aa:bb:cc:dd:ee:ff]
  ///   Name = VELVET
  ///   Service = 00001115-... 00001116-...
  ///   LinkKey = 71a70981f30d6af9e20adee8aafe3264
  ///   LinkKeyType = 4
  [[nodiscard]] std::string to_bt_config() const;

  /// Parse a bt_config.conf document. Unknown keys are ignored; malformed
  /// sections are skipped (a hand-edited config must not brick the stack).
  [[nodiscard]] static SecurityManager from_bt_config(const std::string& text);

  /// Snapshot support: binary round-trip of bonds, per-peer failure
  /// counters and the retry policy (bt_config text would lose the
  /// counters and policy).
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);

 private:
  std::map<BdAddr, BondRecord> bonds_;
  RetryPolicy retry_policy_;
  // Consecutive transient pairing failures per peer (ordered for the same
  // determinism reason as bonds_).
  std::map<BdAddr, unsigned> failed_attempts_;
};

}  // namespace blap::host
