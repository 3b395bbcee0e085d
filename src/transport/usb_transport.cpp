#include "transport/usb_transport.hpp"

namespace blap::transport {

std::uint8_t UsbTransport::endpoint_for(hci::PacketType type, hci::Direction direction) {
  switch (type) {
    case hci::PacketType::kCommand: return 0x00;
    case hci::PacketType::kEvent: return 0x81;
    case hci::PacketType::kAclData:
      return direction == hci::Direction::kHostToController ? 0x02 : 0x82;
    case hci::PacketType::kScoData:
      return direction == hci::Direction::kHostToController ? 0x03 : 0x83;
  }
  return 0x00;
}

void UsbTransport::on_wire(hci::Direction direction, const hci::HciPacket& packet) {
  if (frame_observers_.empty()) return;
  UsbFrame frame;
  frame.timestamp_us = scheduler().now();
  frame.endpoint = endpoint_for(packet.type, direction);
  frame.payload = packet.payload;  // USB HCI carries the body without H4 byte
  for (const auto& observer : frame_observers_) observer(frame);
}

void UsbTransport::persist(state::StateWriter& w) const {
  HciTransport::persist(w);
  w.attached(frame_observers_);
}

void UsbTransport::persist(state::StateReader& r) {
  HciTransport::persist(r);
  r.attached(frame_observers_);
}

}  // namespace blap::transport
