// SHA-256 validation against FIPS 180-4 / NIST example vectors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace blap::crypto {
namespace {

Bytes ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(Sha256::hash(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha256::hash(ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes msg = ascii("The quick brown fox jumps over the lazy dog");
  Sha256 streaming;
  // Feed byte by byte across block boundaries.
  for (std::uint8_t b : msg) streaming.update(BytesView(&b, 1));
  EXPECT_EQ(streaming.finish(), Sha256::hash(msg));
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(ascii("garbage"));
  h.reset();
  h.update(ascii("abc"));
  EXPECT_EQ(hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Padding boundary property: lengths around the 55/56/64-byte edges where the
// length field spills into a second padding block.
class Sha256Padding : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Padding, StreamingEqualsOneShotAtBoundary) {
  Bytes msg(GetParam());
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  Sha256 streaming;
  const std::size_t half = msg.size() / 2;
  streaming.update(BytesView(msg.data(), half));
  streaming.update(BytesView(msg.data() + half, msg.size() - half));
  EXPECT_EQ(streaming.finish(), Sha256::hash(msg));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256Padding,
                         ::testing::Values(54, 55, 56, 57, 63, 64, 65, 119, 120, 128));

// Digests of the messages 00 01 02 .. of every length 0..129, captured when
// finish() still padded one byte per update(): the FNV-1a fold pins all 130,
// and the rows name the lengths either side of each 56-byte padding spill.
TEST(Sha256, EveryLengthMatchesPinnedDigests) {
  std::uint64_t fold = 0xcbf29ce484222325ULL;
  std::vector<std::string> rows;
  for (std::size_t len = 0; len <= 129; ++len) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i);
    const Sha256::Digest digest = Sha256::hash(msg);
    for (const std::uint8_t b : digest) fold = (fold ^ b) * 0x100000001b3ULL;
    if (len == 55 || len == 56 || len == 63 || len == 64 || len == 119 || len == 120)
      rows.push_back(std::to_string(len) + " " + hex(digest));
  }
  EXPECT_EQ(fold, 0x2842ab769e80bad3ULL);
  EXPECT_EQ(rows, (std::vector<std::string>{
                      "55 463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
                      "56 da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
                      "63 29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
                      "64 fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
                      "119 da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
                      "120 f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
                  }));
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash(ascii("abc")), Sha256::hash(ascii("abd")));
}

}  // namespace
}  // namespace blap::crypto
