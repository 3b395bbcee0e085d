// snoop_extractor.hpp — pulling link keys out of an HCI dump (attack §IV-A).
//
// Exactly the analysis the paper performs on the log pulled via Android's
// bug report: scan every record for the two key-bearing HCI messages —
// HCI_Link_Key_Request_Reply (host → controller) and
// HCI_Link_Key_Notification (controller → host) — and read the peer
// address plus the 128-bit key where hci::locate_link_key finds them.
#pragma once

#include <vector>

#include "common/bdaddr.hpp"
#include "crypto/keys.hpp"
#include "hci/snoop.hpp"

namespace blap::core {

enum class KeySource : std::uint8_t {
  kLinkKeyRequestReply,  // host answered the controller's request
  kLinkKeyNotification,  // controller delivered a fresh key
};

[[nodiscard]] const char* to_string(KeySource source);

struct ExtractedKey {
  BdAddr peer;
  crypto::LinkKey key{};
  KeySource source = KeySource::kLinkKeyRequestReply;
  SimTime timestamp_us = 0;
  std::size_t frame_index = 0;  // 1-based frame number in the dump
};

/// Scan a snoop log for link keys: every record whose key bytes are all
/// present, in order.
[[nodiscard]] std::vector<ExtractedKey> extract_link_keys(const hci::SnoopLog& log);

/// Convenience: the most recent key for a specific peer, if any.
[[nodiscard]] std::optional<ExtractedKey> extract_link_key_for(const hci::SnoopLog& log,
                                                               const BdAddr& peer);

}  // namespace blap::core
