// Micro-benchmarks for the cryptographic substrate (google-benchmark).
//
// Not a paper table — supporting data showing the simulator's security
// algorithms run at realistic cost ratios (ECDH dominates SSP, E1 is cheap
// enough to run per-authentication, E0 streams fast enough for payloads).
#include <benchmark/benchmark.h>

#include "crypto/cmac.hpp"
#include "crypto/e0.hpp"
#include "crypto/e1.hpp"
#include "crypto/ecdh.hpp"
#include "crypto/sha256.hpp"
#include "crypto/ssp_functions.hpp"
#include "hci/snoop.hpp"

namespace {

using namespace blap;
using namespace blap::crypto;

const BdAddr kAddrA = *BdAddr::parse("aa:bb:cc:dd:ee:01");
const BdAddr kAddrB = *BdAddr::parse("aa:bb:cc:dd:ee:02");

void BM_Sha256_1K(benchmark::State& state) {
  Bytes data(1024, 0x5A);
  for (auto _ : state) benchmark::DoNotOptimize(Sha256::hash(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1K);

void BM_AesCmac_1K(benchmark::State& state) {
  Aes128::Key key{};
  key.fill(0x2B);
  Bytes data(1024, 0x6B);
  for (auto _ : state) benchmark::DoNotOptimize(aes_cmac(key, data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_AesCmac_1K);

void BM_SaferPlus_Ar(benchmark::State& state) {
  SaferPlus::Key key{};
  key.fill(0x71);
  const SaferPlus cipher(key);
  SaferPlus::Block block{};
  for (auto _ : state) {
    block = cipher.ar(block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_SaferPlus_Ar);

void BM_E1_Authentication(benchmark::State& state) {
  LinkKey key{};
  key.fill(0x71);
  Rand128 rand{};
  rand.fill(0x2A);
  for (auto _ : state) benchmark::DoNotOptimize(e1(key, rand, kAddrA));
}
BENCHMARK(BM_E1_Authentication);

void BM_E3_EncryptionKey(benchmark::State& state) {
  LinkKey key{};
  key.fill(0x71);
  Rand128 rand{};
  rand.fill(0x44);
  Aco cof{};
  cof.fill(0x55);
  for (auto _ : state) benchmark::DoNotOptimize(e3(key, rand, cof));
}
BENCHMARK(BM_E3_EncryptionKey);

void BM_P256_Keygen(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(generate_keypair(EcCurve::p256(), rng));
}
BENCHMARK(BM_P256_Keygen);

void BM_P192_Keygen(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(generate_keypair(EcCurve::p192(), rng));
}
BENCHMARK(BM_P192_Keygen);

// One P-256 field multiply two ways: the Montgomery CIOS loop the curve code
// runs on, and the 512-bit product + Knuth-D reduction it replaced. Each
// iteration feeds its result back in, so the numbers are latencies.
void BM_FieldMul_Montgomery(benchmark::State& state) {
  const MontField field(EcCurve::p256().p());
  const U256 b = field.to_mont(EcCurve::p256().generator().y);
  U256 a = field.to_mont(EcCurve::p256().generator().x);
  for (auto _ : state) {
    a = field.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul_Montgomery);

void BM_FieldMul_KnuthD(benchmark::State& state) {
  const U256& p = EcCurve::p256().p();
  const U256 b = EcCurve::p256().generator().y;
  U256 a = EcCurve::p256().generator().x;
  for (auto _ : state) {
    a = mul_mod(a, b, p);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul_KnuthD);

void BM_P256_SharedSecret(benchmark::State& state) {
  Rng rng(7);
  const auto alice = generate_keypair(EcCurve::p256(), rng);
  const auto bob = generate_keypair(EcCurve::p256(), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(ecdh_shared_secret(EcCurve::p256(), alice.private_key,
                                                bob.public_key));
}
BENCHMARK(BM_P256_SharedSecret);

void BM_P192_SharedSecret(benchmark::State& state) {
  Rng rng(7);
  const auto alice = generate_keypair(EcCurve::p192(), rng);
  const auto bob = generate_keypair(EcCurve::p192(), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(ecdh_shared_secret(EcCurve::p192(), alice.private_key,
                                                bob.public_key));
}
BENCHMARK(BM_P192_SharedSecret);

void BM_Ssp_F2_LinkKey(benchmark::State& state) {
  Rng rng(7);
  const auto alice = generate_keypair(EcCurve::p256(), rng);
  const auto bob = generate_keypair(EcCurve::p256(), rng);
  const auto dh = *ecdh_shared_secret(EcCurve::p256(), alice.private_key, bob.public_key);
  Rand128 n1{}, n2{};
  n1.fill(1);
  n2.fill(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(f2(EcCurve::p256(), dh, n1, n2, kAddrA, kAddrB));
}
BENCHMARK(BM_Ssp_F2_LinkKey);

void BM_E0_Keystream_1K(benchmark::State& state) {
  EncryptionKey key{};
  key.fill(0x10);
  for (auto _ : state) {
    E0Cipher cipher(key, kAddrA, 7);
    Bytes payload(1024, 0x00);
    cipher.crypt(payload);
    benchmark::DoNotOptimize(payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_E0_Keystream_1K);

// One encrypted ACL packet as the controller sends it: a fresh E0Cipher per
// packet (key, master address, packet counter), then a 27-byte DH1 payload.
void BM_E0_Packet(benchmark::State& state) {
  EncryptionKey key{};
  key.fill(0x10);
  Bytes payload(27, 0x00);
  std::uint32_t counter = 0;
  for (auto _ : state) {
    E0Cipher cipher(key, kAddrA, counter++);
    cipher.crypt(payload);
    benchmark::DoNotOptimize(payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 27);
}
BENCHMARK(BM_E0_Packet);

void BM_Snoop_SerializeParse(benchmark::State& state) {
  hci::SnoopLog log;
  for (int i = 0; i < 200; ++i) {
    hci::SnoopRecord record;
    record.timestamp_us = static_cast<SimTime>(i) * 1000;
    record.direction = i % 2 ? hci::Direction::kControllerToHost
                             : hci::Direction::kHostToController;
    record.packet = hci::make_command(hci::op::kAuthenticationRequested, Bytes{0x01, 0x00});
    log.append(std::move(record));
  }
  for (auto _ : state) {
    const Bytes wire = log.serialize();
    benchmark::DoNotOptimize(hci::SnoopLog::parse(wire));
  }
}
BENCHMARK(BM_Snoop_SerializeParse);

}  // namespace

BENCHMARK_MAIN();
