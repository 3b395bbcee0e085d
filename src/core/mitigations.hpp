// mitigations.hpp — the defenses of paper §VII, deployable in the simulator.
//
// Link key extraction (§VII-A):
//   1. Snoop filtering — the HCI dump inspects packet headers and withholds
//      the payload of key-bearing messages. Two granularities, matching the
//      paper's proposal to "log only the first four bytes of the header or
//      replace the link key with a random value".
//   2. HCI payload encryption — host and controller encrypt the key field in
//      transit, defeating hardware (UART/USB) sniffing too. Implemented in
//      HciTransport::set_link_key_payload_protection(); helpers here.
//
// Page blocking (§VII-B):
//   3. Role/IO-capability check — a host that finds itself pairing-initiator
//      on a connection it did not initiate, with a NoInputNoOutput connection
//      initiator, drops the pairing. Implemented in
//      HostConfig::detect_page_blocking; helper here.
#pragma once

#include "common/rng.hpp"
#include "core/device.hpp"
#include "hci/snoop.hpp"

namespace blap::core {

enum class SnoopFilterMode : std::uint8_t {
  /// Log only the packet-type byte plus the 3-byte header of key-bearing
  /// packets (orig_len records the truncation).
  kHeaderOnly,
  /// Keep the record shape but overwrite the 16 key bytes with random data.
  kRandomizeKey,
};

/// Build a snoop filter implementing §VII-A1. The returned filter passes
/// all non-key-bearing records through untouched.
[[nodiscard]] hci::SnoopLog::Filter make_link_key_snoop_filter(SnoopFilterMode mode,
                                                               std::uint64_t rng_seed = 7);

/// Apply §VII-A1 to a device's HCI dump.
void apply_snoop_filter(Device& device, SnoopFilterMode mode);

/// Apply §VII-A2: derive a host–controller session key and turn on payload
/// protection on the device's transport.
void apply_hci_payload_encryption(Device& device, std::uint64_t key_seed = 2022);

/// Apply §VII-B: enable the page blocking detector on a (victim) device.
void apply_page_blocking_detection(Device& device);

}  // namespace blap::core
