// usb_transport.hpp — USB-encapsulated HCI (PC dongles, "QSENN CSR V4.0").
//
// The USB Bluetooth class (Core spec Vol 4, Part B) maps HCI channels onto
// USB endpoints:
//   * commands  → control endpoint 0x00 (class-specific request, no H4 byte)
//   * events    → interrupt IN endpoint 0x81
//   * ACL data  → bulk OUT 0x02 / bulk IN 0x82
//
// A hardware USB analyzer (the paper uses 'Free USB Analyzer' / FTS4USB)
// records these transfers as a raw binary stream. UsbTransport reproduces
// that: every HCI packet becomes a UsbFrame, and registered frame observers
// (the UsbSniffer) see the same byte layout a real capture would contain —
// in particular, a Link_Key_Request_Reply command appears as a control
// transfer whose payload starts "0b 04 16", the pattern the paper's
// extraction searches for.
#pragma once

#include <functional>
#include <vector>

#include "transport/transport.hpp"

namespace blap::transport {

/// One captured USB transfer.
struct UsbFrame {
  SimTime timestamp_us = 0;
  std::uint8_t endpoint = 0x00;  // 0x00 control, 0x81 intr IN, 0x02/0x82 bulk
  Bytes payload;                 // HCI packet body without the H4 type byte
};

class UsbTransport final : public HciTransport {
 public:
  using FrameObserver = std::function<void(const UsbFrame&)>;

  /// USB 2.0 full-speed-ish service latency; per-transfer overhead dominates
  /// packet size at HCI scales.
  explicit UsbTransport(Scheduler& scheduler, SimTime per_transfer_overhead_us = 125)
      : HciTransport(scheduler), overhead_us_(per_transfer_overhead_us) {}

  /// Attach a frame observer (a USB protocol analyzer clipped onto the bus).
  void add_frame_observer(FrameObserver observer) {
    frame_observers_.push_back(std::move(observer));
  }

  /// Endpoint assignment for a packet type and direction.
  [[nodiscard]] static std::uint8_t endpoint_for(hci::PacketType type, hci::Direction direction);

  /// Snapshot support: base-transport state plus the frame-observer count
  /// (a kRewind restore drops analyzers clipped on after the capture).
  void persist(state::StateWriter& w) const override;
  void persist(state::StateReader& r) override;

 protected:
  [[nodiscard]] SimTime transit_delay(std::size_t wire_bytes) const override {
    return overhead_us_ + static_cast<SimTime>(wire_bytes) / 12;  // ~12 MB/s
  }

  void on_wire(hci::Direction direction, const hci::HciPacket& packet) override;

 private:
  SimTime overhead_us_;
  std::vector<FrameObserver> frame_observers_;
};

}  // namespace blap::transport
