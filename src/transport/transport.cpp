#include "transport/transport.hpp"

#include "chaos/failpoint.hpp"
#include "hci/constants.hpp"

namespace blap::transport {

void HciTransport::set_link_key_payload_protection(std::optional<crypto::Aes128::Key> key) {
  protection_key_ = key;
  protection_counter_[0] = protection_counter_[1] = 0;
}

hci::HciPacket HciTransport::wire_view(hci::Direction direction, const hci::HciPacket& packet) {
  if (!protection_key_) return packet;

  const auto field = hci::locate_link_key(packet.type, packet.payload);
  if (!field || !field->key_present) return packet;

  // AES-CTR keystream block: [counter LE u64 | direction | zero padding].
  const std::uint64_t counter = protection_counter_[static_cast<int>(direction)]++;
  crypto::Aes128::Block nonce{};
  for (int i = 0; i < 8; ++i) nonce[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(counter >> (8 * i));
  nonce[8] = static_cast<std::uint8_t>(direction);
  const crypto::Aes128 cipher(*protection_key_);
  const crypto::Aes128::Block keystream = cipher.encrypt(nonce);

  hci::HciPacket protected_packet = packet;
  for (std::size_t i = 0; i < 16; ++i)
    protected_packet.payload[field->key_offset() + i] ^= keystream[i];
  return protected_packet;
}

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void HciTransport::fields(Io& io, Self& self) {
  io.opt(self.protection_key_);
  io.field(self.protection_counter_);
  io.attached(self.taps_);
  // After a clock rewind the FIFO watermark may sit in the (new) future and
  // would spuriously delay the first post-restore frames; the line is idle
  // at a freshly restored instant, so clear it.
  if constexpr (Io::kLoading)
    if (io.mode() == state::RestoreMode::kRewind)
      self.line_clear_at_[0] = self.line_clear_at_[1] = 0;
}

void HciTransport::persist(state::StateWriter& w) const { fields(w, *this); }
void HciTransport::persist(state::StateReader& r) { fields(r, *this); }

void HciTransport::send(hci::Direction direction, const hci::HciPacket& packet) {
  const hci::HciPacket observed = wire_view(direction, packet);
  for (const auto& tap : taps_) tap(direction, observed);
  on_wire(direction, observed);
  SimTime delay = transit_delay(packet.to_wire().size());
  // UART flow control wedges for ~100 ms before the frame gets through.
  // Liveness-safe on purpose: every HCI packet still arrives, late enough
  // to race any timer in the stack.
  if (BLAP_FAILPOINT("transport.frame.stall")) delay += 100'000;
  // Serialize the line: H4/USB carry each direction as a FIFO, so a packet
  // can never overtake one submitted earlier in the same direction — even
  // though a short frame's transit is faster than a long one's. Without
  // this clamp a Disconnection_Complete could arrive before the
  // Connection_Complete whose link it kills (found by the chaos sweep:
  // controller.supervision.timer_early left the host holding a phantom
  // ACL). Equal delivery instants keep submission order via scheduler
  // sequence numbers.
  const auto dir = static_cast<std::size_t>(direction);
  const SimTime now = scheduler_.now();
  SimTime deliver_at = now + delay;
  if (deliver_at < line_clear_at_[dir]) deliver_at = line_clear_at_[dir];
  line_clear_at_[dir] = deliver_at;
  // The receiving endpoint shares the session key and recovers the
  // plaintext, so delivery carries the original packet.
  hci::HciPacket copy = packet;
  if (direction == hci::Direction::kHostToController) {
    scheduler_.schedule_in(deliver_at - now, [this, copy = std::move(copy)] {
      if (to_controller_) to_controller_(copy);
    });
  } else {
    scheduler_.schedule_in(deliver_at - now, [this, copy = std::move(copy)] {
      if (to_host_) to_host_(copy);
    });
  }
}

}  // namespace blap::transport
