// test_codec_fuzz.cpp — seeded fuzz round-trips for the HCI and LMP codecs.
//
// The check bodies live in src/fuzz/codec_harness.hpp, shared verbatim with
// the coverage-guided fuzz targets (fuzz_hci_codec / fuzz_lmp_codec): the
// property this suite asserts on randomized-but-valid values is, by
// construction, the same property the fuzzer explores on arbitrary bytes.
// For every typed PDU in hci::Commands, hci::Events and
// controller::LmpPayloads, per value the harness checks:
//
//   * encode -> decode -> encode reproduces the first wire bytes,
//   * every strict prefix of the parameter block decodes to nullopt
//     (truncation rejects cleanly, no UB under the ASan/UBSan CI),
//   * a valid block + trailing garbage either rejects or decodes to the
//     same value — matching real controllers' tolerance of padded commands.
//
// Seeds are fixed: failures reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "controller/lmp.hpp"
#include "fuzz/codec_harness.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"
#include "hci/packets.hpp"

namespace blap::hci {
namespace {

using fuzz::check_h4_round_trip;
using fuzz::check_hci_wire;
using fuzz::check_lmp_frame;
using fuzz::check_lmp_round_trip;
using fuzz::check_round_trip;
using fuzz::CheckResult;

constexpr int kRounds = 200;

// --- generic H4 framing ------------------------------------------------------

TEST(CodecFuzz, H4WireRoundTrip) {
  Rng rng(0xF00D);
  constexpr PacketType kTypes[] = {PacketType::kCommand, PacketType::kAclData,
                                   PacketType::kScoData, PacketType::kEvent};
  for (int i = 0; i < kRounds; ++i) {
    HciPacket pkt;
    pkt.type = kTypes[rng.uniform(4)];
    pkt.payload = rng.buffer(rng.uniform(600));
    const CheckResult r = check_h4_round_trip(pkt);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

TEST(CodecFuzz, H4RejectsEmptyAndUnknownType) {
  EXPECT_FALSE(HciPacket::from_wire({}).has_value());
  Rng rng(0xBEEF);
  for (int i = 0; i < kRounds; ++i) {
    Bytes wire = rng.buffer(1 + rng.uniform(64));
    wire[0] = static_cast<std::uint8_t>(5 + rng.uniform(200));  // not an H4 type
    EXPECT_FALSE(HciPacket::from_wire(wire).has_value());
  }
}

// The fuzz targets' arbitrary-input probes must accept every well-formed
// wire this suite generates — a seed input that trips the probe would make
// the fuzzer report valid traffic as a finding.
TEST(CodecFuzz, ArbitraryInputProbeAcceptsValidWires) {
  Rng rng(0xCAFE);
  for (int i = 0; i < kRounds; ++i) {
    DisconnectCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    const CheckResult r = check_hci_wire(hci::encode(cmd).to_wire(), nullptr);
    ASSERT_TRUE(r.ok) << r.detail;

    controller::LmpPdu pdu;
    pdu.opcode = controller::LmpOpcode::kPing;
    pdu.payload = rng.buffer(rng.uniform(16));
    const CheckResult lmp = check_lmp_frame(pdu.to_air_frame(), nullptr);
    ASSERT_TRUE(lmp.ok) << lmp.detail;
  }
}

// --- every typed PDU ---------------------------------------------------------

// Values come from decoding seeded random blocks, so no PDU needs its own
// generator and every value is one its decoder accepts (a default-built
// PinCodeRequestReplyCmd carries an empty PIN that its decoder rejects).
// A block is as long as the PDU's default encoding, and at least 65 bytes
// so that a P-256 public key fits; fixed-size PDUs ignore the bytes after
// their last field. Each value must also pass the fuzz target's
// arbitrary-input probe, framed as the packet or air frame that carries it.
template <typename T>
void check_seeded_values(std::uint64_t seed) {
  const char* name = fuzz::harness_detail::spec_name<T>();
  const std::size_t length = std::max<std::size_t>(pdu::encode(T{}).size(), 65);
  Rng rng(seed);
  int values = 0;
  for (int attempt = 0; attempt < 256 * kRounds && values < kRounds; ++attempt) {
    const auto value = pdu::decode<T>(rng.buffer(length));
    if (!value) continue;
    ++values;
    const CheckResult r = check_round_trip(*value);
    ASSERT_TRUE(r.ok) << r.detail;
    CheckResult probe;
    if constexpr (fuzz::harness_detail::LmpPayload<T>) {
      const controller::LmpPdu carrier{T::kOpcodes[0], pdu::encode(*value)};
      probe = check_lmp_frame(carrier.to_air_frame(), nullptr);
    } else {
      probe = check_hci_wire(hci::encode(*value).to_wire(), nullptr);
    }
    ASSERT_TRUE(probe.ok) << probe.detail;
  }
  EXPECT_GE(values, kRounds / 4) << name << ": too few seeded blocks decoded";
}

template <typename... Ts>
void check_every(pdu::List<Ts...>, std::uint64_t seed) {
  (check_seeded_values<Ts>(seed++), ...);
}

TEST(CodecFuzz, EveryCommandRoundTrips) { check_every(Commands{}, 100); }

TEST(CodecFuzz, EveryEventRoundTrips) { check_every(Events{}, 200); }

TEST(CodecFuzz, EveryLmpPayloadRoundTrips) { check_every(controller::LmpPayloads{}, 300); }

// --- hand-built values -------------------------------------------------------

// The loop above only sees values a random block decodes to; these build the
// attack-path PDUs field by field, with in-range values the stack sends.
template <typename T, typename MakeFn>
void fuzz_value(std::uint64_t seed, MakeFn make) {
  Rng rng(seed);
  for (int i = 0; i < kRounds; ++i) {
    const T value = make(rng);
    const CheckResult r = check_round_trip(value);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

BdAddr random_addr(Rng& rng) { return BdAddr(rng.bytes<6>()); }

TEST(CodecFuzz, CreateConnectionCmd) {
  fuzz_value<CreateConnectionCmd>(1, [](Rng& rng) {
    CreateConnectionCmd cmd;
    cmd.bdaddr = random_addr(rng);
    cmd.packet_type = static_cast<std::uint16_t>(rng.next_u64());
    cmd.page_scan_repetition_mode = static_cast<std::uint8_t>(rng.uniform(3));
    cmd.reserved = 0;
    cmd.clock_offset = static_cast<std::uint16_t>(rng.next_u64());
    cmd.allow_role_switch = static_cast<std::uint8_t>(rng.uniform(2));
    return cmd;
  });
}

TEST(CodecFuzz, DisconnectCmd) {
  fuzz_value<DisconnectCmd>(2, [](Rng& rng) {
    DisconnectCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    cmd.reason = static_cast<Status>(rng.uniform(0x40));
    return cmd;
  });
}

TEST(CodecFuzz, LinkKeyRequestReplyCmd) {
  fuzz_value<LinkKeyRequestReplyCmd>(3, [](Rng& rng) {
    LinkKeyRequestReplyCmd cmd;
    cmd.bdaddr = random_addr(rng);
    cmd.link_key = rng.bytes<16>();
    return cmd;
  });
}

TEST(CodecFuzz, AuthenticationRequestedCmd) {
  fuzz_value<AuthenticationRequestedCmd>(4, [](Rng& rng) {
    AuthenticationRequestedCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    return cmd;
  });
}

TEST(CodecFuzz, SetConnectionEncryptionCmd) {
  fuzz_value<SetConnectionEncryptionCmd>(5, [](Rng& rng) {
    SetConnectionEncryptionCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    cmd.encryption_enable = static_cast<std::uint8_t>(rng.uniform(2));
    return cmd;
  });
}

TEST(CodecFuzz, ConnectionCompleteEvt) {
  fuzz_value<ConnectionCompleteEvt>(6, [](Rng& rng) {
    ConnectionCompleteEvt evt;
    evt.status = static_cast<Status>(rng.uniform(0x40));
    evt.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    evt.bdaddr = random_addr(rng);
    evt.link_type = static_cast<std::uint8_t>(rng.uniform(2));
    evt.encryption_enabled = static_cast<std::uint8_t>(rng.uniform(2));
    return evt;
  });
}

TEST(CodecFuzz, LinkKeyNotificationEvt) {
  fuzz_value<LinkKeyNotificationEvt>(7, [](Rng& rng) {
    LinkKeyNotificationEvt evt;
    evt.bdaddr = random_addr(rng);
    evt.link_key = rng.bytes<16>();
    evt.key_type = static_cast<crypto::LinkKeyType>(rng.uniform(8));
    return evt;
  });
}

// --- ACL fragments -----------------------------------------------------------

// The ACL header's u16 packs handle (bits 0-11), the Packet_Boundary flag
// (12-13) and the Broadcast flag (14-15). Continuation fragments (PB=1) and
// every other flag combination must round-trip through make_acl_fragment()
// and the accessors, and the declared data length must agree with the
// payload.
TEST(CodecFuzz, AclContinuationFragmentsRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < kRounds; ++i) {
    const auto handle = static_cast<ConnectionHandle>(rng.uniform(0x1000));
    const auto pb = static_cast<std::uint8_t>(rng.uniform(4));
    const auto bc = static_cast<std::uint8_t>(rng.uniform(4));
    const Bytes data = rng.buffer(rng.uniform(48));

    const HciPacket pkt = make_acl_fragment(handle, pb, bc, data);
    ASSERT_EQ(pkt.type, PacketType::kAclData);
    ASSERT_TRUE(pkt.acl_handle().has_value());
    EXPECT_EQ(*pkt.acl_handle(), handle & 0x0FFF);
    ASSERT_TRUE(pkt.acl_pb_flag().has_value());
    EXPECT_EQ(*pkt.acl_pb_flag(), pb & 0x03);
    ASSERT_TRUE(pkt.acl_bc_flag().has_value());
    EXPECT_EQ(*pkt.acl_bc_flag(), bc & 0x03);
    ASSERT_TRUE(pkt.acl_data().has_value());
    EXPECT_EQ(to_bytes(*pkt.acl_data()), data);

    // H4 wire round trip preserves the flag bits exactly.
    const CheckResult r = check_h4_round_trip(pkt);
    ASSERT_TRUE(r.ok) << r.detail;
    // And the arbitrary-input probe's header/length consistency holds.
    const CheckResult probe = check_hci_wire(pkt.to_wire(), nullptr);
    ASSERT_TRUE(probe.ok) << probe.detail;
  }
}

TEST(CodecFuzz, AclHeaderTruncationRejects) {
  const HciPacket pkt = make_acl_fragment(0x0042, 1, 0, Bytes{1, 2, 3});
  const Bytes wire = pkt.to_wire();
  // Cutting anywhere inside the 4-byte ACL header (after the H4 type byte)
  // must make the accessors reject; cutting into the data must shrink
  // acl_data() consistently or reject, never read out of bounds.
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    const auto parsed = HciPacket::from_wire(BytesView(wire).subspan(0, cut));
    if (!parsed.has_value()) continue;
    if (parsed->payload.size() < 4) {
      EXPECT_FALSE(parsed->acl_handle().has_value());
      EXPECT_FALSE(parsed->acl_pb_flag().has_value());
      EXPECT_FALSE(parsed->acl_bc_flag().has_value());
    }
  }
  // make_acl() is the PB=0/BC=0 special case of make_acl_fragment().
  EXPECT_EQ(make_acl(0x0042, Bytes{9, 9}).to_wire(),
            make_acl_fragment(0x0042, 0, 0, Bytes{9, 9}).to_wire());
}

// --- LMP ---------------------------------------------------------------------

TEST(CodecFuzz, LmpPduRoundTrip) {
  Rng rng(8);
  for (int i = 0; i < kRounds; ++i) {
    controller::LmpPdu pdu;
    pdu.opcode = static_cast<controller::LmpOpcode>(
        1 + rng.uniform(static_cast<std::uint64_t>(controller::LmpOpcode::kSresSc)));
    pdu.payload = rng.buffer(rng.uniform(64));
    const CheckResult r = check_lmp_round_trip(pdu);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

TEST(CodecFuzz, LmpRejectsBadFrames) {
  // Empty, wrong channel, opcode 0, opcode out of range.
  EXPECT_FALSE(controller::LmpPdu::from_air_frame({}).has_value());
  Rng rng(9);
  for (int i = 0; i < kRounds; ++i) {
    Bytes frame = rng.buffer(2 + rng.uniform(32));
    frame[0] = static_cast<std::uint8_t>(2 + rng.uniform(250));  // not kLmp/kAcl channel
    EXPECT_FALSE(controller::LmpPdu::from_air_frame(frame).has_value());
    frame[0] = 0;  // LMP channel
    frame[1] = 0;  // opcode 0 is invalid
    EXPECT_FALSE(controller::LmpPdu::from_air_frame(frame).has_value());
    frame[1] = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(controller::LmpOpcode::kSresSc) + 1 + rng.uniform(100));
    EXPECT_FALSE(controller::LmpPdu::from_air_frame(frame).has_value());
  }
  // A channel byte alone (no opcode) is truncated.
  const Bytes only_channel = {0};
  EXPECT_FALSE(controller::LmpPdu::from_air_frame(only_channel).has_value());
}

// LmpPublicKey is the variable-length case: [width u8][x width bytes]
// [y width bytes] for widths 24 (P-192) and 32 (P-256). The loop above
// checks its round trip and every strict prefix; here the declared width
// must bound the read.
TEST(CodecFuzz, LmpVariableLengthPublicKeyRejectsTruncation) {
  Rng rng(12);
  for (int i = 0; i < kRounds / 4; ++i) {
    const controller::LmpPublicKey key{rng.buffer(24), rng.buffer(24)};
    const Bytes enc = pdu::encode(key);
    const auto dec = pdu::decode<controller::LmpPublicKey>(enc);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->x, key.x);
    EXPECT_EQ(dec->y, key.y);

    // A width byte that promises more coordinate bytes than the frame
    // carries must not over-read: a P-192 frame relabelled P-256 rejects.
    Bytes lying = enc;
    lying[0] = 32;
    EXPECT_FALSE(pdu::decode<controller::LmpPublicKey>(lying).has_value());
  }
  // Widths other than the two supported curves reject outright, however
  // many bytes follow.
  for (const int bad_width : {0, 1, 16, 25, 33, 255}) {
    Bytes frame{static_cast<std::uint8_t>(bad_width)};
    frame.resize(1 + 2 * static_cast<std::size_t>(bad_width), 0xAB);
    EXPECT_FALSE(pdu::decode<controller::LmpPublicKey>(frame).has_value())
        << "width " << bad_width << " accepted";
  }
}

}  // namespace
}  // namespace blap::hci
