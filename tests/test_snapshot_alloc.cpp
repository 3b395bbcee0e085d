// Pins the heap-allocation count of a steady-state fork restore. Every
// stack-fuzz execution, bonded-cell fork and chaos trial restores the same
// warm bonded snapshot onto the simulation it was captured from, so after
// the first restore every component's load_state refills storage the
// simulation already holds. What may still allocate is the endpoint roster
// and the medium's attachment list, both built per restore.
//
// Its own binary: it replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "snapshot/chaos_trial.hpp"
#include "snapshot/snapshot.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace blap::snapshot {
namespace {

TEST(SnapshotAlloc, SteadyStateRestoreMakesAtMostTwoAllocations) {
  Scenario s = build_scenario(1, bonded_cell_params());
  bonded_warm_setup(s);
  std::string why;
  const auto warm = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(warm.has_value()) << why;
  // The refill paths must have something to refill: a bond, a pairing
  // popup, phone-book entries and MAP messages on the victim.
  const host::HostStack& victim = s.target->host();
  ASSERT_TRUE(victim.security().is_bonded(s.accessory->address()));
  ASSERT_FALSE(victim.popup_history().empty());
  ASSERT_FALSE(victim.pbap().phonebook().empty());
  ASSERT_GT(victim.map().message_count(), 0u);

  ASSERT_TRUE(warm->restore(*s.sim, &why)) << why;
  for (int i = 0; i < 8; ++i) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const bool restored = warm->restore(*s.sim);
    const std::size_t made = g_allocations.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(restored);
    EXPECT_LE(made, 2u) << "restore " << i + 2 << " made " << made << " allocations";
  }
}

}  // namespace
}  // namespace blap::snapshot
