// hfp.hpp — Hands-Free Profile (simplified) over L2CAP.
//
// HFP is what makes a car-kit a car-kit: the accessory C in the paper's
// system model is "car-kits, headset devices" speaking exactly this profile,
// and §IV promises a stolen link key leaks "phone call conversations". BLAP
// models HFP as:
//   * a control channel carrying AT-style commands (RING, ATA, AT+CHUP), and
//   * an audio stream of voice frames flowing both ways during a call.
//
// Simplification: real HFP runs AT commands over RFCOMM with audio on SCO
// links; BLAP carries both over L2CAP channels (PSM 0x1005). Audio frames
// ride the encrypted ACL path, so a recorded call is ciphertext on the air —
// until a stolen link key replays it (core/air_analysis).
//
// Control messages : 'A' 'T' | command bytes          (either direction)
// Audio frames     : 0xA0 | seq u16 | voice samples   (during a call)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "host/l2cap.hpp"

namespace blap::host {

namespace psm_ext2 {
inline constexpr std::uint16_t kHfp = 0x1005;
}

class HfpProfile {
 public:
  struct AudioFrame {
    std::uint16_t sequence = 0;
    Bytes samples;
  };

  /// Gateway (phone) side state.
  [[nodiscard]] bool call_active() const { return call_active_; }
  [[nodiscard]] const std::vector<AudioFrame>& received_audio() const { return received_; }
  [[nodiscard]] const std::vector<std::string>& at_log() const { return at_log_; }

  /// Handle an inbound HFP message (server or peer side). Returns false for
  /// bytes that are not HFP traffic.
  bool handle(L2cap& l2cap, const L2capChannel& channel, BytesView data);

  /// Send an AT command on the channel ("ATA" answers, "AT+CHUP" hangs up,
  /// "RING" alerts).
  void send_at(L2cap& l2cap, const L2capChannel& channel, const std::string& command);

  /// Send one audio frame (call must be active on the receiving side for it
  /// to be recorded).
  void send_audio(L2cap& l2cap, const L2capChannel& channel, BytesView samples);

  void set_call_active(bool active) { call_active_ = active; }
  void clear() {
    received_.clear();
    at_log_.clear();
  }

  /// Snapshot support: the full gateway-side state (call flag, tx sequence,
  /// received audio, AT log). HFP holds no completion callbacks.
  void save_state(state::StateWriter& w) const {
    w.boolean(call_active_);
    w.u16(tx_sequence_);
    w.u64(received_.size());
    for (const AudioFrame& frame : received_) {
      w.u16(frame.sequence);
      w.bytes(frame.samples);
    }
    w.u64(at_log_.size());
    for (const std::string& line : at_log_) w.str(line);
  }
  void load_state(state::StateReader& r) {
    call_active_ = r.boolean();
    tx_sequence_ = r.u16();
    r.read_vector(received_, [&r](AudioFrame& frame) {
      frame.sequence = r.u16();
      r.bytes(frame.samples);
    });
    r.read_vector(at_log_, [&r](std::string& line) { r.str(line); });
  }

 private:
  bool call_active_ = false;
  std::uint16_t tx_sequence_ = 0;
  std::vector<AudioFrame> received_;
  std::vector<std::string> at_log_;
};

}  // namespace blap::host
