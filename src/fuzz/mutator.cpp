#include "fuzz/mutator.hpp"

#include <algorithm>

#include "controller/lmp.hpp"
#include "hci/constants.hpp"

namespace blap::fuzz {
namespace {

Bytes u16_le(std::uint16_t v) {
  return {static_cast<std::uint8_t>(v & 0xFF), static_cast<std::uint8_t>(v >> 8)};
}

}  // namespace

Dictionary Dictionary::bluetooth() {
  Dictionary dict;
  // HCI command opcodes, little-endian as they appear in the wire header,
  // then event codes, in the order of the name rows (sorted by code).
  // kLinkKeyRequestReply is the paper's "0b 04" signature byte pair.
  for (const hci::CodeName& row : hci::kCommandNames) dict.tokens.push_back(u16_le(row.code));
  for (const hci::CodeName& row : hci::kEventNames)
    dict.tokens.push_back(Bytes{static_cast<std::uint8_t>(row.code)});

  // H4 packet-type indicators.
  for (std::uint8_t t = 0x01; t <= 0x04; ++t) dict.tokens.push_back(Bytes{t});

  // LMP: air-channel discriminators and the full opcode range.
  dict.tokens.push_back(Bytes{static_cast<std::uint8_t>(controller::AirChannel::kLmp)});
  dict.tokens.push_back(Bytes{static_cast<std::uint8_t>(controller::AirChannel::kAcl)});
  for (std::uint8_t op = 1; op <= static_cast<std::uint8_t>(controller::LmpOpcode::kSresSc);
       ++op)
    dict.tokens.push_back(
        Bytes{static_cast<std::uint8_t>(controller::AirChannel::kLmp), op});

  // P-256 / P-192 coordinate widths (the LMP public-key length byte).
  dict.tokens.push_back(Bytes{24});
  dict.tokens.push_back(Bytes{32});

  // Boundary-interesting 16-bit values: handles, lengths, flag patterns.
  constexpr std::uint16_t kU16[] = {0x0000, 0x0001, 0x00FF, 0x0100, 0x0EFF,
                                    0x0FFF, 0x1000, 0x7FFF, 0x8000, 0xFFFF};
  for (const std::uint16_t v : kU16) dict.tokens.push_back(u16_le(v));
  return dict;
}

Mutator::Mutator(std::uint64_t seed, Dictionary dictionary)
    : rng_(seed), dictionary_(std::move(dictionary)) {}

Bytes Mutator::mutate(BytesView input, const std::vector<Bytes>& corpus_pool,
                      std::size_t max_len) {
  Bytes data = to_bytes(input);
  const std::uint64_t rounds = 1 + rng_.uniform(4);
  for (std::uint64_t i = 0; i < rounds; ++i) one_mutation(data, corpus_pool);
  if (data.empty()) data.push_back(static_cast<std::uint8_t>(rng_.next_u64()));
  if (data.size() > max_len) data.resize(max_len);
  return data;
}

void Mutator::one_mutation(Bytes& data, const std::vector<Bytes>& corpus_pool) {
  enum Kind : std::uint64_t {
    kBitFlip = 0,
    kByteSet,
    kByteArith,
    kInsert,
    kErase,
    kDupRange,
    kSplice,
    kDictInsert,
    kDictOverwrite,
    kLengthTweak,
    kTruncate,
    kKinds,
  };
  // Empty inputs can only grow.
  if (data.empty()) {
    const Bytes& token = dictionary_.tokens[rng_.uniform(dictionary_.tokens.size())];
    data = token;
    return;
  }
  switch (static_cast<Kind>(rng_.uniform(kKinds))) {
    case kBitFlip: {
      const std::size_t pos = rng_.uniform(data.size());
      data[pos] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
      break;
    }
    case kByteSet: {
      data[rng_.uniform(data.size())] = static_cast<std::uint8_t>(rng_.next_u64());
      break;
    }
    case kByteArith: {
      // +/- a small delta: walks values across nearby enum cases and
      // off-by-one length bugs without leaving the neighbourhood.
      const std::size_t pos = rng_.uniform(data.size());
      const auto delta = static_cast<std::uint8_t>(1 + rng_.uniform(8));
      data[pos] = rng_.chance(0.5) ? static_cast<std::uint8_t>(data[pos] + delta)
                                   : static_cast<std::uint8_t>(data[pos] - delta);
      break;
    }
    case kInsert: {
      const std::size_t pos = rng_.uniform(data.size() + 1);
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(pos),
                  static_cast<std::uint8_t>(rng_.next_u64()));
      break;
    }
    case kErase: {
      const std::size_t n = 1 + rng_.uniform(std::min<std::size_t>(data.size(), 8));
      const std::size_t pos = rng_.uniform(data.size() - n + 1);
      data.erase(data.begin() + static_cast<std::ptrdiff_t>(pos),
                 data.begin() + static_cast<std::ptrdiff_t>(pos + n));
      break;
    }
    case kDupRange: {
      const std::size_t n = 1 + rng_.uniform(std::min<std::size_t>(data.size(), 16));
      const std::size_t pos = rng_.uniform(data.size() - n + 1);
      const Bytes range(data.begin() + static_cast<std::ptrdiff_t>(pos),
                        data.begin() + static_cast<std::ptrdiff_t>(pos + n));
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(pos), range.begin(),
                  range.end());
      break;
    }
    case kSplice: {
      if (corpus_pool.empty()) break;
      const Bytes& other = corpus_pool[rng_.uniform(corpus_pool.size())];
      if (other.empty()) break;
      const std::size_t head = rng_.uniform(data.size() + 1);
      const std::size_t tail_at = rng_.uniform(other.size());
      data.resize(head);
      data.insert(data.end(), other.begin() + static_cast<std::ptrdiff_t>(tail_at),
                  other.end());
      break;
    }
    case kDictInsert: {
      const Bytes& token = dictionary_.tokens[rng_.uniform(dictionary_.tokens.size())];
      const std::size_t pos = rng_.uniform(data.size() + 1);
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(pos), token.begin(),
                  token.end());
      break;
    }
    case kDictOverwrite: {
      const Bytes& token = dictionary_.tokens[rng_.uniform(dictionary_.tokens.size())];
      if (token.size() > data.size()) break;
      const std::size_t pos = rng_.uniform(data.size() - token.size() + 1);
      for (std::size_t i = 0; i < token.size(); ++i) data[pos + i] = token[i];
      break;
    }
    case kLengthTweak: {
      // Stamp a boundary-interesting length over a random byte: zero, one,
      // exactly the bytes that follow it, or one past the end.
      const std::size_t pos = rng_.uniform(data.size());
      const std::size_t rest = data.size() - pos - 1;
      const std::uint8_t choices[] = {
          0, 1, static_cast<std::uint8_t>(rest),
          static_cast<std::uint8_t>(rest + 1 + rng_.uniform(4)),
          static_cast<std::uint8_t>(rng_.next_u64())};
      data[pos] = choices[rng_.uniform(std::size(choices))];
      break;
    }
    case kTruncate: {
      data.resize(1 + rng_.uniform(data.size()));
      break;
    }
    case kKinds:
      break;
  }
}

}  // namespace blap::fuzz
