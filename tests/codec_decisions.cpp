// codec_decisions.cpp — prints every typed decoder's accept/reject decisions
// over a fixed neighbourhood of one canonical parameter block per PDU.
//
//   $ ./codec_decisions > codec_decisions.out
//
// The golden_codec_decisions ctest compares the output with
// tests/golden/codec_decisions.txt, so a decoder that starts accepting (or
// rejecting) one more input, or that decodes an accepted input to a
// different value, changes a line. Per PDU the neighbourhood is:
//
//   * the canonical block itself and every strict prefix of it;
//   * each byte replaced by each of 19 boundary values;
//   * the block with 1 to 9 bytes appended;
//   * 64 seeded single-byte changes and 16 seeded random blocks of the
//     same length.
//
// Each line gives the number of accepted inputs and a 64-bit FNV-1a digest
// over (input index, canonical re-encoding) of every accepted input. After
// the PDU lines come every code with a real opcode_name/event_name, and the
// token count and digest of Dictionary::bluetooth().
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "controller/lmp.hpp"
#include "fuzz/mutator.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"

namespace {

using namespace blap;

struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(BytesView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    for (const std::uint8_t x : b) byte(x);
  }
};

/// One PDU under test: its canonical parameter block and a decoder that
/// returns the canonical re-encoding of whatever it accepts.
struct Subject {
  const char* label;
  Bytes block;
  std::function<std::optional<Bytes>(BytesView)> reencode;
};

// The three functions that name the codec API.
template <typename T>
Bytes wire_of(const T& value) {
  return hci::encode(value).to_wire();
}
template <typename T>
std::optional<T> decode_as(BytesView params) {
  return pdu::decode<T>(params);
}
template <typename T>
Bytes payload_of(const T& value) {
  return pdu::encode(value);
}

/// HCI PDUs: the block follows the H4 type byte and the command (3) or
/// event (2) header.
template <typename T>
Subject hci_subject(const char* label, const T& canonical, std::size_t header) {
  const Bytes wire = wire_of(canonical);
  return {label, Bytes(wire.begin() + static_cast<std::ptrdiff_t>(1 + header), wire.end()),
          [](BytesView params) -> std::optional<Bytes> {
            const auto value = decode_as<T>(params);
            if (!value) return std::nullopt;
            return wire_of(*value);
          }};
}

template <typename T>
Subject lmp_subject(const char* label, const T& canonical) {
  return {label, payload_of(canonical), [](BytesView payload) -> std::optional<Bytes> {
            const auto value = decode_as<T>(payload);
            if (!value) return std::nullopt;
            return payload_of(*value);
          }};
}

std::vector<Subject> subjects() {
  using namespace hci;
  const BdAddr addr({0x11, 0x22, 0x33, 0x44, 0x55, 0x66});
  const ClassOfDevice cod(ClassOfDevice::kHandsFree);
  crypto::LinkKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(0xA0 + i);
  const std::string name = "carkit";
  constexpr std::size_t kCmd = 3;
  constexpr std::size_t kEvt = 2;

  std::vector<Subject> s;
  s.push_back(hci_subject("InquiryCmd", InquiryCmd{0x9E8B33, 8, 0}, kCmd));
  s.push_back(hci_subject("CreateConnectionCmd",
                          CreateConnectionCmd{addr, 0xCC18, 0x01, 0x00, 0x1234, 0x01}, kCmd));
  s.push_back(hci_subject(
      "DisconnectCmd", DisconnectCmd{0x0001, Status::kRemoteUserTerminatedConnection}, kCmd));
  s.push_back(hci_subject("AcceptConnectionRequestCmd", AcceptConnectionRequestCmd{addr, 0x01},
                          kCmd));
  s.push_back(hci_subject("RejectConnectionRequestCmd",
                          RejectConnectionRequestCmd{addr, Status::kPairingNotAllowed}, kCmd));
  s.push_back(hci_subject("LinkKeyRequestReplyCmd", LinkKeyRequestReplyCmd{addr, key}, kCmd));
  s.push_back(hci_subject("LinkKeyRequestNegativeReplyCmd",
                          LinkKeyRequestNegativeReplyCmd{addr}, kCmd));
  s.push_back(hci_subject("PinCodeRequestReplyCmd", PinCodeRequestReplyCmd{addr, "1234"}, kCmd));
  s.push_back(hci_subject("PinCodeRequestNegativeReplyCmd",
                          PinCodeRequestNegativeReplyCmd{addr}, kCmd));
  s.push_back(
      hci_subject("AuthenticationRequestedCmd", AuthenticationRequestedCmd{0x0001}, kCmd));
  s.push_back(hci_subject("SetConnectionEncryptionCmd", SetConnectionEncryptionCmd{0x0001, 0x01},
                          kCmd));
  s.push_back(hci_subject("RemoteNameRequestCmd",
                          RemoteNameRequestCmd{addr, 0x01, 0x00, 0x1234}, kCmd));
  s.push_back(hci_subject(
      "IoCapabilityRequestReplyCmd",
      IoCapabilityRequestReplyCmd{addr, IoCapability::kDisplayYesNo, 0x00, 0x03}, kCmd));
  s.push_back(hci_subject("UserConfirmationRequestReplyCmd",
                          UserConfirmationRequestReplyCmd{addr}, kCmd));
  s.push_back(hci_subject("UserConfirmationRequestNegativeReplyCmd",
                          UserConfirmationRequestNegativeReplyCmd{addr}, kCmd));
  s.push_back(
      hci_subject("WriteScanEnableCmd", WriteScanEnableCmd{ScanEnable::kPageOnly}, kCmd));
  s.push_back(hci_subject("WriteClassOfDeviceCmd", WriteClassOfDeviceCmd{cod}, kCmd));
  s.push_back(hci_subject("WriteLocalNameCmd", WriteLocalNameCmd{name}, kCmd));
  s.push_back(hci_subject("WriteSimplePairingModeCmd", WriteSimplePairingModeCmd{0x01}, kCmd));

  s.push_back(hci_subject("CommandCompleteEvt",
                          CommandCompleteEvt{1, op::kWriteScanEnable, Bytes{0x00}}, kEvt));
  s.push_back(hci_subject("CommandStatusEvt",
                          CommandStatusEvt{Status::kSuccess, 1, op::kCreateConnection}, kEvt));
  s.push_back(hci_subject("InquiryResultEvt", InquiryResultEvt{addr, 0x01, cod, 0x1234}, kEvt));
  s.push_back(hci_subject("InquiryCompleteEvt", InquiryCompleteEvt{Status::kSuccess}, kEvt));
  s.push_back(hci_subject("ExtendedInquiryResultEvt",
                          ExtendedInquiryResultEvt{addr, 0x01, cod, 0x1234, -60, name}, kEvt));
  s.push_back(
      hci_subject("ConnectionRequestEvt", ConnectionRequestEvt{addr, cod, 0x01}, kEvt));
  s.push_back(hci_subject("ConnectionCompleteEvt",
                          ConnectionCompleteEvt{Status::kSuccess, 0x0001, addr, 0x01, 0x00},
                          kEvt));
  s.push_back(hci_subject(
      "DisconnectionCompleteEvt",
      DisconnectionCompleteEvt{Status::kSuccess, 0x0001,
                               Status::kRemoteUserTerminatedConnection},
      kEvt));
  s.push_back(hci_subject("AuthenticationCompleteEvt",
                          AuthenticationCompleteEvt{Status::kSuccess, 0x0001}, kEvt));
  s.push_back(hci_subject("RemoteNameRequestCompleteEvt",
                          RemoteNameRequestCompleteEvt{Status::kSuccess, addr, name}, kEvt));
  s.push_back(hci_subject("EncryptionChangeEvt",
                          EncryptionChangeEvt{Status::kSuccess, 0x0001, 0x01}, kEvt));
  s.push_back(hci_subject("LinkKeyRequestEvt", LinkKeyRequestEvt{addr}, kEvt));
  s.push_back(hci_subject(
      "LinkKeyNotificationEvt",
      LinkKeyNotificationEvt{addr, key, crypto::LinkKeyType::kAuthenticatedCombinationP256},
      kEvt));
  s.push_back(hci_subject("IoCapabilityRequestEvt", IoCapabilityRequestEvt{addr}, kEvt));
  s.push_back(hci_subject("PinCodeRequestEvt", PinCodeRequestEvt{addr}, kEvt));
  s.push_back(hci_subject(
      "IoCapabilityResponseEvt",
      IoCapabilityResponseEvt{addr, IoCapability::kNoInputNoOutput, 0x00, 0x00}, kEvt));
  s.push_back(hci_subject("UserConfirmationRequestEvt",
                          UserConfirmationRequestEvt{addr, 123456}, kEvt));
  s.push_back(hci_subject("SimplePairingCompleteEvt",
                          SimplePairingCompleteEvt{Status::kSuccess, addr}, kEvt));

  Bytes x(24), y(24);
  for (std::size_t i = 0; i < 24; ++i) {
    x[i] = static_cast<std::uint8_t>(0x40 + i);
    y[i] = static_cast<std::uint8_t>(0x80 + i);
  }
  s.push_back(lmp_subject("LmpIoCap", controller::LmpIoCap{0x01, 0x00, 0x03}));
  s.push_back(lmp_subject("LmpPublicKey", controller::LmpPublicKey{x, y}));
  s.push_back(lmp_subject("LmpNotAccepted",
                          controller::LmpNotAccepted{controller::LmpOpcode::kAuRand, 0x06}));
  return s;
}

/// The deterministic input neighbourhood of `block`.
std::vector<Bytes> neighbourhood(const Bytes& block, std::uint64_t seed) {
  static constexpr std::uint8_t kBoundary[19] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x07, 0x08,
                                                 0x09, 0x0F, 0x10, 0x11, 0x18, 0x20, 0x7E,
                                                 0x7F, 0x80, 0x81, 0xFE, 0xFF};
  std::vector<Bytes> inputs;
  inputs.push_back(block);
  for (std::size_t cut = 0; cut < block.size(); ++cut)
    inputs.emplace_back(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(cut));
  for (std::size_t i = 0; i < block.size(); ++i) {
    for (const std::uint8_t v : kBoundary) {
      Bytes b = block;
      b[i] = v;
      inputs.push_back(std::move(b));
    }
  }
  for (std::size_t extra = 1; extra <= 9; ++extra) {
    Bytes b = block;
    for (std::size_t i = 0; i < extra; ++i) b.push_back(static_cast<std::uint8_t>(0xA5 + 17 * i));
    inputs.push_back(std::move(b));
  }
  Rng rng(seed);
  for (int i = 0; i < 64 && !block.empty(); ++i) {
    Bytes b = block;
    b[rng.uniform(b.size())] = static_cast<std::uint8_t>(rng.next_u64());
    inputs.push_back(std::move(b));
  }
  for (int i = 0; i < 16; ++i) inputs.push_back(rng.buffer(block.size()));
  return inputs;
}

}  // namespace

int main() {
  const std::vector<Subject> all = subjects();
  for (std::size_t n = 0; n < all.size(); ++n) {
    const Subject& subject = all[n];
    Fnv digest;
    std::size_t accepted = 0;
    const std::vector<Bytes> inputs = neighbourhood(subject.block, 0xC0DEC000u + n);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto canonical = subject.reencode(inputs[i]);
      if (!canonical) continue;
      ++accepted;
      digest.u32(static_cast<std::uint32_t>(i));
      digest.bytes(*canonical);
    }
    std::printf("%-40s block %3zu inputs %5zu accepted %5zu digest %016" PRIx64 "\n",
                subject.label, subject.block.size(), inputs.size(), accepted, digest.h);
  }

  for (std::uint32_t code = 0; code <= 0xFFFF; ++code) {
    const char* name = hci::opcode_name(static_cast<std::uint16_t>(code));
    if (std::strcmp(name, "HCI_Unknown_Command") != 0)
      std::printf("opcode 0x%04x %s\n", static_cast<unsigned>(code), name);
  }
  for (std::uint32_t code = 0; code <= 0xFF; ++code) {
    const char* name = hci::event_name(static_cast<std::uint8_t>(code));
    if (std::strcmp(name, "HCI_Unknown_Event") != 0)
      std::printf("event 0x%02x %s\n", static_cast<unsigned>(code), name);
  }

  const fuzz::Dictionary dict = fuzz::Dictionary::bluetooth();
  Fnv dict_digest;
  for (const Bytes& token : dict.tokens) dict_digest.bytes(token);
  std::printf("dictionary tokens %zu digest %016" PRIx64 "\n", dict.tokens.size(),
              dict_digest.h);
  return 0;
}
