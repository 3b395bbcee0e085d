// Unit tests for the btsnoop (RFC 1761) HCI dump implementation.
#include <gtest/gtest.h>

#include <cstdio>

#include "hci/commands.hpp"
#include "hci/events.hpp"
#include "hci/snoop.hpp"

namespace blap::hci {
namespace {

SnoopRecord record_of(SimTime t, Direction dir, HciPacket packet) {
  SnoopRecord record;
  record.timestamp_us = t;
  record.direction = dir;
  record.packet = std::move(packet);
  return record;
}

TEST(Snoop, SerializeStartsWithMagicAndVersion) {
  SnoopLog log;
  const Bytes wire = log.serialize();
  ASSERT_GE(wire.size(), 16u);
  EXPECT_EQ(std::string(wire.begin(), wire.begin() + 8), std::string("btsnoop\0", 8));
  // version 1, datalink 1002 (big-endian)
  EXPECT_EQ(wire[11], 1);
  EXPECT_EQ((wire[14] << 8) | wire[15], 1002);
}

TEST(Snoop, RoundTripPreservesRecords) {
  SnoopLog log;
  log.append(record_of(100, Direction::kHostToController,
                       make_command(op::kCreateConnection, Bytes{1, 2, 3})));
  log.append(record_of(250, Direction::kControllerToHost,
                       make_event(ev::kConnectionComplete, Bytes{0})));
  auto parsed = SnoopLog::parse(log.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->records()[0].timestamp_us, 100u);
  EXPECT_EQ(parsed->records()[0].direction, Direction::kHostToController);
  EXPECT_EQ(parsed->records()[0].packet, log.records()[0].packet);
  EXPECT_EQ(parsed->records()[1].direction, Direction::kControllerToHost);
}

TEST(Snoop, FlagsEncodeDirectionAndChannel) {
  SnoopRecord cmd = record_of(0, Direction::kHostToController, make_command(op::kReset, {}));
  EXPECT_EQ(cmd.flags(), 2u);  // sent + command/event channel
  SnoopRecord evt =
      record_of(0, Direction::kControllerToHost, make_event(ev::kInquiryComplete, Bytes{0}));
  EXPECT_EQ(evt.flags(), 3u);  // received + command/event channel
  SnoopRecord acl = record_of(0, Direction::kHostToController, make_acl(1, Bytes{1}));
  EXPECT_EQ(acl.flags(), 0u);
}

TEST(Snoop, ParseRejectsBadMagic) {
  Bytes garbage = {'n', 'o', 't', 's', 'n', 'o', 'o', 'p', 0, 0, 0, 1, 0, 0, 3, 0xEA};
  EXPECT_FALSE(SnoopLog::parse(garbage).has_value());
  EXPECT_FALSE(SnoopLog::parse(Bytes{}).has_value());
}

TEST(Snoop, ParseToleratesTruncatedFinalRecord) {
  SnoopLog log;
  log.append(record_of(1, Direction::kHostToController, make_command(op::kReset, {})));
  log.append(record_of(2, Direction::kHostToController, make_command(op::kInquiry, Bytes(5))));
  Bytes wire = log.serialize();
  wire.resize(wire.size() - 3);  // cut the last record mid-payload
  auto parsed = SnoopLog::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);  // the complete record survives
}

TEST(Snoop, TimestampUsesSnoopEpoch) {
  SnoopLog log;
  log.append(record_of(12345, Direction::kHostToController, make_command(op::kReset, {})));
  const Bytes wire = log.serialize();
  // Timestamp starts at offset 16 (header) + 16 (record header prefix).
  ByteReader r(BytesView(wire).subspan(16));
  (void)r.u32be();  // orig_len
  (void)r.u32be();  // incl_len
  (void)r.u32be();  // flags
  (void)r.u32be();  // drops
  const auto stamp = r.u64be();
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(*stamp, 12345u + kSnoopEpochOffsetUs);
}

TEST(Snoop, FilterCanDropRecords) {
  SnoopLog log;
  log.set_filter([](SnoopRecord record) -> std::optional<SnoopRecord> {
    if (record.packet.type == PacketType::kAclData) return std::nullopt;
    return record;
  });
  log.append(record_of(1, Direction::kHostToController, make_acl(1, Bytes{1})));
  log.append(record_of(2, Direction::kHostToController, make_command(op::kReset, {})));
  EXPECT_EQ(log.size(), 1u);
}

TEST(Snoop, FilterCanModifyRecords) {
  SnoopLog log;
  log.set_filter([](SnoopRecord record) -> std::optional<SnoopRecord> {
    record.packet.payload.clear();
    return record;
  });
  log.append(record_of(1, Direction::kHostToController, make_command(op::kReset, {})));
  EXPECT_TRUE(log.records()[0].packet.payload.empty());
  // original_length still records the pre-filter size.
  EXPECT_GT(log.records()[0].original_length, 0u);
}

TEST(Snoop, SaveAndLoadFile) {
  SnoopLog log;
  log.append(record_of(7, Direction::kControllerToHost,
                       make_event(ev::kLinkKeyRequest, Bytes(6, 0xAB))));
  const std::string path = "/tmp/blap_test_snoop.btsnoop";
  ASSERT_TRUE(log.save(path));
  auto loaded = SnoopLog::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->records()[0].packet, log.records()[0].packet);
  std::remove(path.c_str());
}

TEST(Snoop, LoadMissingFileFails) {
  EXPECT_FALSE(SnoopLog::load("/tmp/blap_does_not_exist.btsnoop").has_value());
}

TEST(Snoop, FormatTableShowsFig12Columns) {
  SnoopLog log;
  log.append(record_of(1, Direction::kControllerToHost,
                       hci::encode(ConnectionRequestEvt{*BdAddr::parse("00:1b:7d:da:71:0a"),
                                                        ClassOfDevice(0), 1})));
  AcceptConnectionRequestCmd accept;
  accept.bdaddr = *BdAddr::parse("00:1b:7d:da:71:0a");
  log.append(record_of(2, Direction::kHostToController, hci::encode(accept)));
  log.append(record_of(3, Direction::kHostToController,
                       hci::encode(AuthenticationRequestedCmd{0x0003})));
  const std::string table = log.format_table();
  EXPECT_NE(table.find("HCI_Connection_Request"), std::string::npos);
  EXPECT_NE(table.find("HCI_Accept_Connection_Request"), std::string::npos);
  EXPECT_NE(table.find("HCI_Authentication_Requested"), std::string::npos);
  EXPECT_NE(table.find("0x0003"), std::string::npos);  // handle column
}

TEST(Snoop, EmptyLogRoundTrip) {
  auto parsed = SnoopLog::parse(SnoopLog{}.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 0u);
}

// Property: serialize/parse round-trips for logs of many sizes.
class SnoopRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SnoopRoundTrip, ManyRecords) {
  SnoopLog log;
  for (int i = 0; i < GetParam(); ++i) {
    log.append(record_of(static_cast<SimTime>(i) * 100,
                         i % 2 ? Direction::kControllerToHost : Direction::kHostToController,
                         i % 3 == 0 ? make_acl(static_cast<ConnectionHandle>(i), Bytes(static_cast<std::size_t>(i % 7)))
                                    : make_command(op::kInquiry, Bytes(5))));
  }
  auto parsed = SnoopLog::parse(log.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), static_cast<std::size_t>(GetParam()));
  for (int i = 0; i < GetParam(); ++i) {
    EXPECT_EQ(parsed->records()[static_cast<std::size_t>(i)].packet,
              log.records()[static_cast<std::size_t>(i)].packet);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SnoopRoundTrip, ::testing::Values(0, 1, 2, 10, 100));

}  // namespace
}  // namespace blap::hci
