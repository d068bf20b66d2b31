//===-- tests/SupportTest.cpp - Support utilities ---------------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/FunctionRegistry.h"
#include "support/Crc32.h"
#include "support/Hashing.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <thread>
#include <vector>

using namespace literace;

namespace {

TEST(HashingTest, Mix64IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(HashingTest, Mix64SpreadsLowBits) {
  // Sequential inputs must not produce sequential low bits (SyncVar
  // counter selection depends on this).
  std::set<uint64_t> LowBits;
  for (uint64_t I = 0; I != 256; ++I)
    LowBits.insert(mix64(I) & 127);
  EXPECT_GT(LowBits.size(), 100u);
}

TEST(HashingTest, HashCombineOrderSensitive) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 A(7), B(7), C(8);
  for (int I = 0; I != 100; ++I) {
    uint64_t V = A.next();
    EXPECT_EQ(V, B.next());
  }
  EXPECT_NE(A.next(), C.next());
}

TEST(SplitMix64Test, NextDoubleInUnitInterval) {
  SplitMix64 Rng(123);
  for (int I = 0; I != 10000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(SplitMix64Test, NextBelowRespectsBound) {
  SplitMix64 Rng(99);
  for (uint64_t Bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int I = 0; I != 1000; ++I)
      EXPECT_LT(Rng.nextBelow(Bound), Bound);
  }
}

TEST(SplitMix64Test, NextBelowIsRoughlyUniform) {
  SplitMix64 Rng(5);
  unsigned Counts[8] = {};
  const unsigned N = 80000;
  for (unsigned I = 0; I != N; ++I)
    ++Counts[Rng.nextBelow(8)];
  for (unsigned Bucket = 0; Bucket != 8; ++Bucket)
    EXPECT_NEAR(Counts[Bucket], N / 8.0, N / 8.0 * 0.1);
}

TEST(SplitMix64Test, BernoulliEdgeCases) {
  SplitMix64 Rng(1);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(Rng.nextBernoulli(0.0));
    EXPECT_TRUE(Rng.nextBernoulli(1.0));
    EXPECT_FALSE(Rng.nextBernoulli(-0.5));
    EXPECT_TRUE(Rng.nextBernoulli(1.5));
  }
}

TEST(SplitMix64Test, BernoulliHitsRate) {
  SplitMix64 Rng(17);
  unsigned Hits = 0;
  const unsigned N = 100000;
  for (unsigned I = 0; I != N; ++I)
    Hits += Rng.nextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.01);
}

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer Timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double S = Timer.seconds();
  EXPECT_GE(S, 0.015);
  EXPECT_LT(S, 5.0);
  EXPECT_GE(Timer.nanoseconds(), 15u * 1000 * 1000);
  Timer.restart();
  EXPECT_LT(Timer.seconds(), 0.015);
}

/// The CRC32C update functions under test: the portable table path
/// always, and the SSE4.2 path where this CPU has it.
using Crc32cUpdateFn = uint32_t (*)(uint32_t, const void *, size_t);
std::vector<std::pair<const char *, Crc32cUpdateFn>> crc32cPaths() {
  std::vector<std::pair<const char *, Crc32cUpdateFn>> Paths = {
      {"table", &detail::crc32cUpdateTable}, {"dispatch", &crc32cUpdate}};
#ifdef LITERACE_CRC32C_HW
  if (detail::crc32cHardwareAvailable())
    Paths.emplace_back("hardware", &detail::crc32cUpdateHardware);
#endif
  return Paths;
}

uint32_t oneShot(Crc32cUpdateFn Update, const void *Data, size_t Size) {
  return crc32cFinal(Update(crc32cInit(), Data, Size));
}

TEST(Crc32Test, MatchesTheCastagnoliCheckValue) {
  // The canonical CRC32C check value (RFC 3720 / Intel SSE4.2 crc32c):
  // crc of the nine ASCII digits "123456789".
  for (const auto &[Name, Update] : crc32cPaths())
    EXPECT_EQ(oneShot(Update, "123456789", 9), 0xE3069283u) << Name;
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, KnownVectors) {
  // RFC 3720 appendix B.4 vectors, on every path.
  uint8_t Zeros[32] = {}, Ones[32], Up[32], Down[32];
  for (unsigned I = 0; I != 32; ++I) {
    Ones[I] = 0xff;
    Up[I] = static_cast<uint8_t>(I);
    Down[I] = static_cast<uint8_t>(31 - I);
  }
  for (const auto &[Name, Update] : crc32cPaths()) {
    EXPECT_EQ(oneShot(Update, "", 0), 0x00000000u) << Name;
    EXPECT_EQ(oneShot(Update, "a", 1), 0xC1D04330u) << Name;
    EXPECT_EQ(oneShot(Update, Zeros, 32), 0x8A9136AAu) << Name;
    EXPECT_EQ(oneShot(Update, Ones, 32), 0x62A8AB43u) << Name;
    EXPECT_EQ(oneShot(Update, Up, 32), 0x46DD794Eu) << Name;
    EXPECT_EQ(oneShot(Update, Down, 32), 0x113FDB5Cu) << Name;
  }
}

TEST(Crc32Test, AllPathsAgreeOnRandomBuffers) {
  SplitMix64 Rng(0xc3c32);
  std::vector<uint8_t> Buffer(4096 + 8);
  for (uint8_t &B : Buffer)
    B = static_cast<uint8_t>(Rng.next());
  const auto Paths = crc32cPaths();
  for (int Trial = 0; Trial != 400; ++Trial) {
    const size_t Start = Trial % 8;
    const size_t Size = Trial < 64 ? Trial : Rng.nextBelow(4097);
    const uint32_t Want =
        oneShot(&detail::crc32cUpdateTable, Buffer.data() + Start, Size);
    for (const auto &[Name, Update] : Paths)
      EXPECT_EQ(oneShot(Update, Buffer.data() + Start, Size), Want)
          << Name << " start=" << Start << " size=" << Size;
  }
}

TEST(Crc32Test, IncrementalUpdatesMatchOneShot) {
  const char Data[] = "segmented checksummed frames";
  const size_t Size = sizeof(Data) - 1;
  uint32_t State = crc32cInit();
  for (size_t I = 0; I != Size; ++I)
    State = crc32cUpdate(State, Data + I, 1);
  EXPECT_EQ(crc32cFinal(State), crc32c(Data, Size));

  // Random split points, on every path: any chunking of the input gives
  // the one-shot value.
  SplitMix64 Rng(77);
  std::vector<uint8_t> Buffer(4096);
  for (uint8_t &B : Buffer)
    B = static_cast<uint8_t>(Rng.next());
  for (const auto &[Name, Update] : crc32cPaths()) {
    for (int Trial = 0; Trial != 50; ++Trial) {
      const size_t Len = Rng.nextBelow(Buffer.size() + 1);
      uint32_t S = crc32cInit();
      size_t At = 0;
      while (At < Len) {
        const size_t Piece = std::min<size_t>(Len - At, Rng.nextBelow(70));
        S = Update(S, Buffer.data() + At, Piece);
        At += Piece;
      }
      EXPECT_EQ(crc32cFinal(S), crc32c(Buffer.data(), Len))
          << Name << " len=" << Len;
    }
  }
}

TEST(Crc32Test, SingleBitFlipsChangeTheChecksum) {
  const char Data[] = "literace segment payload bytes!!";
  const size_t Size = sizeof(Data) - 1;
  const uint32_t Clean = crc32c(Data, Size);
  for (size_t Byte = 0; Byte != Size; ++Byte)
    for (unsigned Bit = 0; Bit != 8; ++Bit) {
      char Flipped[sizeof(Data)];
      std::memcpy(Flipped, Data, sizeof(Data));
      Flipped[Byte] ^= static_cast<char>(1u << Bit);
      EXPECT_NE(crc32c(Flipped, Size), Clean)
          << "byte " << Byte << " bit " << Bit;
    }
}

TEST(FunctionRegistryTest, DenseIdsAndNames) {
  FunctionRegistry Registry;
  FunctionId A = Registry.registerFunction("alpha");
  FunctionId B = Registry.registerFunction("beta");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(Registry.name(A), "alpha");
  EXPECT_EQ(Registry.name(B), "beta");
  EXPECT_EQ(Registry.size(), 2u);
}

TEST(FunctionRegistryTest, DuplicateNamesAreDistinctRegions) {
  FunctionRegistry Registry;
  FunctionId A = Registry.registerFunction("f");
  FunctionId B = Registry.registerFunction("f");
  EXPECT_NE(A, B);
}

TEST(FunctionRegistryTest, ConcurrentRegistrationIsSafe) {
  FunctionRegistry Registry;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&Registry, T] {
      for (unsigned I = 0; I != 500; ++I)
        Registry.registerFunction("t" + std::to_string(T) + "." +
                                  std::to_string(I));
    });
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Registry.size(), 2000u);
  // Every id maps to a unique name.
  std::set<std::string> Names;
  for (FunctionId F = 0; F != 2000; ++F)
    Names.insert(Registry.name(F));
  EXPECT_EQ(Names.size(), 2000u);
}

} // namespace
