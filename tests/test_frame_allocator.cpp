#include "mem/frame_allocator.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "util/prng.h"

namespace msa::mem {
namespace {

struct Fixture {
  dram::DramModel dram{dram::DramConfig::test_small()};

  PageFrameAllocator make(SanitizePolicy sanitize = SanitizePolicy::kNone,
                          PlacementPolicy placement =
                              PlacementPolicy::kSequentialLifo,
                          std::uint64_t frames = 64) {
    return PageFrameAllocator{
        dram, FrameAllocatorConfig{.first_pfn = 0x100,
                                   .frame_count = frames,
                                   .sanitize = sanitize,
                                   .placement = placement,
                                   .seed = 5}};
  }
};

TEST(FrameAllocator, SequentialLifoHandsOutAscendingPfns) {
  Fixture f;
  auto a = f.make();
  EXPECT_EQ(a.allocate(1).value(), 0x100u);
  EXPECT_EQ(a.allocate(1).value(), 0x101u);
  EXPECT_EQ(a.allocate(1).value(), 0x102u);
}

TEST(FrameAllocator, LifoReusesMostRecentlyFreed) {
  Fixture f;
  auto a = f.make();
  const Pfn p0 = a.allocate(1).value();
  const Pfn p1 = a.allocate(1).value();
  a.free(p0);
  a.free(p1);
  // LIFO: p1 comes back first — immediate dirty reuse, the worst case for
  // residue exposure to the *next* tenant.
  EXPECT_EQ(a.allocate(2).value(), p1);
  EXPECT_EQ(a.allocate(2).value(), p0);
}

TEST(FrameAllocator, FifoDelaysReuse) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kNone, PlacementPolicy::kSequentialFifo, 8);
  std::vector<Pfn> first;
  for (int i = 0; i < 8; ++i) first.push_back(a.allocate(1).value());
  a.free(first[0]);
  a.free(first[1]);
  // FIFO pops the oldest free entry.
  EXPECT_EQ(a.allocate(2).value(), first[0]);
  EXPECT_EQ(a.allocate(2).value(), first[1]);
}

TEST(FrameAllocator, RandomizedPlacementIsSeededAndScattered) {
  Fixture f1, f2;
  auto a1 = f1.make(SanitizePolicy::kNone, PlacementPolicy::kRandomized, 64);
  auto a2 = f2.make(SanitizePolicy::kNone, PlacementPolicy::kRandomized, 64);
  std::vector<Pfn> s1, s2;
  for (int i = 0; i < 32; ++i) {
    s1.push_back(a1.allocate(1).value());
    s2.push_back(a2.allocate(1).value());
  }
  EXPECT_EQ(s1, s2);  // same seed, same sequence (reproducibility)
  // And the sequence is not simply ascending.
  bool ascending = true;
  for (std::size_t i = 1; i < s1.size(); ++i) {
    if (s1[i] != s1[i - 1] + 1) ascending = false;
  }
  EXPECT_FALSE(ascending);
}

TEST(FrameAllocator, ExhaustionReturnsNullopt) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kNone, PlacementPolicy::kSequentialLifo, 4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(a.allocate(1).has_value());
  EXPECT_FALSE(a.allocate(1).has_value());
  EXPECT_EQ(a.free_frames(), 0u);
  EXPECT_EQ(a.used_frames(), 4u);
}

TEST(FrameAllocator, DoubleFreeThrows) {
  Fixture f;
  auto a = f.make();
  const Pfn p = a.allocate(1).value();
  a.free(p);
  EXPECT_THROW(a.free(p), std::logic_error);
}

TEST(FrameAllocator, OwnerPidZeroThrows) {
  Fixture f;
  auto a = f.make();
  EXPECT_THROW((void)a.allocate(0), std::invalid_argument);
  EXPECT_EQ(a.free_frames(), 64u);
}

TEST(FrameAllocator, ForeignPfnThrows) {
  Fixture f;
  auto a = f.make();
  EXPECT_THROW(a.free(0x99), std::out_of_range);
  EXPECT_THROW((void)a.info(0x1000), std::out_of_range);
}

TEST(FrameAllocator, NoSanitizeLeavesResidue) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kNone);
  const Pfn p = a.allocate(1).value();
  const auto pa = PageFrameAllocator::frame_to_phys(p);
  f.dram.fill_range(pa, PageFrameAllocator::kPageSize, 0xEE);
  a.free(p);
  EXPECT_TRUE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  // Next tenant sees the previous tenant's bytes: the paper's bug.
  const Pfn q = a.allocate(2).value();
  EXPECT_EQ(q, p);
  EXPECT_EQ(f.dram.read8(pa), 0xEE);
  EXPECT_EQ(a.stats().dirty_reuses, 1u);
}

TEST(FrameAllocator, ZeroOnFreeScrubsImmediately) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kZeroOnFree);
  const Pfn p = a.allocate(1).value();
  const auto pa = PageFrameAllocator::frame_to_phys(p);
  f.dram.fill_range(pa, PageFrameAllocator::kPageSize, 0xEE);
  a.free(p);
  EXPECT_FALSE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  EXPECT_EQ(a.stats().frames_scrubbed, 1u);
  EXPECT_EQ(a.stats().bytes_scrubbed, PageFrameAllocator::kPageSize);
}

TEST(FrameAllocator, ZeroOnAllocLeavesResidueWhileFree) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kZeroOnAlloc);
  const Pfn p = a.allocate(1).value();
  const auto pa = PageFrameAllocator::frame_to_phys(p);
  f.dram.fill_range(pa, PageFrameAllocator::kPageSize, 0xEE);
  a.free(p);
  // Residue persists while the frame sits free — scrapable window!
  EXPECT_TRUE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  // ...but the next owner gets a clean page.
  const Pfn q = a.allocate(2).value();
  EXPECT_EQ(q, p);
  EXPECT_FALSE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  EXPECT_EQ(a.stats().dirty_reuses, 1u);  // it *was* dirty at hand-out time
}

TEST(FrameAllocator, OwnerTrackingAcrossLifecycle) {
  Fixture f;
  auto a = f.make();
  const Pfn p = a.allocate(42).value();
  EXPECT_EQ(a.info(p).owner_pid, 42);
  a.free(p);
  EXPECT_EQ(a.info(p).owner_pid, 0);
  EXPECT_EQ(a.info(p).last_owner, 42);
  EXPECT_TRUE(a.info(p).ever_used);
}

TEST(FrameAllocator, DirtyFreeFramesForensics) {
  Fixture f;
  auto a = f.make();
  const Pfn p1 = a.allocate(1).value();
  const Pfn p2 = a.allocate(1).value();
  f.dram.fill_range(PageFrameAllocator::frame_to_phys(p1), 64, 0x5A);
  // p2 never written.
  a.free(p1);
  a.free(p2);
  const auto dirty = a.dirty_free_frames();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], p1);
}

TEST(FrameAllocator, PhysFrameConversions) {
  EXPECT_EQ(PageFrameAllocator::frame_to_phys(0x60000), 0x60000000u);
  EXPECT_EQ(PageFrameAllocator::phys_to_frame(0x61C6D730), 0x61C6Du);
}

TEST(FrameAllocator, RejectsBadConfigs) {
  Fixture f;
  EXPECT_THROW(
      (PageFrameAllocator{f.dram, FrameAllocatorConfig{.first_pfn = 0,
                                                       .frame_count = 0}}),
      std::invalid_argument);
  // Pool outside the 16 MiB test DRAM.
  EXPECT_THROW(
      (PageFrameAllocator{f.dram, FrameAllocatorConfig{.first_pfn = 0x10000,
                                                       .frame_count = 10}}),
      std::invalid_argument);
}

struct PolicyCase {
  SanitizePolicy sanitize;
  PlacementPolicy placement;
};

class AllocatorPolicySweep : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(AllocatorPolicySweep, AllocFreeAllInvariants) {
  // Property: under any policy combination, allocate-all then free-all
  // returns the allocator to a consistent state with no frame leaked.
  Fixture f;
  auto a = f.make(GetParam().sanitize, GetParam().placement, 32);
  std::set<Pfn> held;
  for (int i = 0; i < 32; ++i) {
    const auto p = a.allocate(7);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(held.insert(*p).second) << "duplicate frame handed out";
  }
  EXPECT_FALSE(a.allocate(7).has_value());
  for (const Pfn p : held) a.free(p);
  EXPECT_EQ(a.free_frames(), 32u);
  EXPECT_EQ(a.stats().allocations, 32u);
  EXPECT_EQ(a.stats().frees, 32u);
  // Every frame can be allocated again.
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(a.allocate(8).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AllocatorPolicySweep,
    ::testing::Values(
        PolicyCase{SanitizePolicy::kNone, PlacementPolicy::kSequentialLifo},
        PolicyCase{SanitizePolicy::kNone, PlacementPolicy::kSequentialFifo},
        PolicyCase{SanitizePolicy::kNone, PlacementPolicy::kRandomized},
        PolicyCase{SanitizePolicy::kZeroOnFree, PlacementPolicy::kSequentialLifo},
        PolicyCase{SanitizePolicy::kZeroOnFree, PlacementPolicy::kRandomized},
        PolicyCase{SanitizePolicy::kZeroOnAlloc, PlacementPolicy::kSequentialLifo},
        PolicyCase{SanitizePolicy::kZeroOnAlloc, PlacementPolicy::kSequentialFifo}));

constexpr std::array kSanitizePolicies{SanitizePolicy::kNone,
                                       SanitizePolicy::kZeroOnFree,
                                       SanitizePolicy::kZeroOnAlloc};
constexpr std::array kPlacementPolicies{PlacementPolicy::kSequentialLifo,
                                        PlacementPolicy::kSequentialFifo,
                                        PlacementPolicy::kRandomized};

/// A seeded alloc/free history that leaves residue in some frames and
/// frees and reuses frames. With `exhaust` it runs 400 operations and the
/// pool dry mid-way. Without, it is trial-sized: 24 operations holding at
/// most 4 frames, so a later reset must find the few free-list slots the
/// history touched rather than rebuild them all. At the end it
/// cross-checks dirty_free_frames() against a brute-force scan.
void run_history(PageFrameAllocator& a, dram::DramModel& dram,
                 std::uint64_t seed, bool exhaust) {
  const int ops = exhaust ? 400 : 24;
  const std::size_t cap = exhaust ? a.config().frame_count : 4;
  util::Prng prng{seed};
  std::vector<Pfn> held;
  const auto allocate = [&] {
    const auto p = a.allocate(static_cast<std::int64_t>(1 + prng.below(5)));
    if (!p) return false;
    held.push_back(*p);
    if (prng.chance(0.5)) {
      dram.fill_range(PageFrameAllocator::frame_to_phys(*p) + prng.below(4000),
                      64, static_cast<std::uint8_t>(1 + prng.below(255)));
    }
    return true;
  };
  const auto free_one = [&] {
    const std::size_t i = static_cast<std::size_t>(prng.below(held.size()));
    a.free(held[i]);
    held[i] = held.back();
    held.pop_back();
  };
  for (int op = 0; op < ops; ++op) {
    if (exhaust && op == 200) {
      while (allocate()) {
      }
      ASSERT_EQ(a.free_frames(), 0u);
    }
    if (held.empty() || (held.size() < cap && prng.chance(0.6))) {
      (void)allocate();
    } else {
      free_one();
    }
  }
  // Leave a mix of held and freed frames behind.
  for (std::size_t n = held.size() / 2; n > 0; --n) free_one();

  std::vector<Pfn> expected_dirty;
  const FrameAllocatorConfig& c = a.config();
  for (Pfn pfn = c.first_pfn; pfn < c.first_pfn + c.frame_count; ++pfn) {
    const FrameInfo& fi = a.info(pfn);
    if (fi.ever_used && fi.owner_pid == 0 &&
        dram.any_nonzero(PageFrameAllocator::frame_to_phys(pfn),
                         PageFrameAllocator::kPageSize)) {
      expected_dirty.push_back(pfn);
    }
  }
  EXPECT_EQ(a.dirty_free_frames(), expected_dirty);
}

/// Expects `reset` to be indistinguishable from a fresh allocator built
/// from its config over the same DRAM: frame table, counters, forensics
/// view, and the whole allocation sequence until the pool runs dry.
void expect_same_as_fresh(PageFrameAllocator& reset, dram::DramModel& dram) {
  PageFrameAllocator fresh{dram, reset.config()};
  const FrameAllocatorConfig& c = fresh.config();
  const auto expect_same_state = [&] {
    for (Pfn pfn = c.first_pfn; pfn < c.first_pfn + c.frame_count; ++pfn) {
      ASSERT_EQ(reset.info(pfn).owner_pid, fresh.info(pfn).owner_pid) << pfn;
      ASSERT_EQ(reset.info(pfn).last_owner, fresh.info(pfn).last_owner) << pfn;
      ASSERT_EQ(reset.info(pfn).ever_used, fresh.info(pfn).ever_used) << pfn;
    }
    EXPECT_EQ(reset.stats().allocations, fresh.stats().allocations);
    EXPECT_EQ(reset.stats().frees, fresh.stats().frees);
    EXPECT_EQ(reset.stats().dirty_reuses, fresh.stats().dirty_reuses);
    EXPECT_EQ(reset.stats().frames_scrubbed, fresh.stats().frames_scrubbed);
    EXPECT_EQ(reset.stats().bytes_scrubbed, fresh.stats().bytes_scrubbed);
    EXPECT_EQ(reset.free_frames(), fresh.free_frames());
    EXPECT_EQ(reset.dirty_free_frames(), fresh.dirty_free_frames());
  };
  expect_same_state();
  // Fresh frames are never scrubbed or dirty-checked, so drawing from
  // both allocators over one DRAM does not couple them.
  for (std::uint64_t i = 0; i <= c.frame_count; ++i) {
    ASSERT_EQ(reset.allocate(3), fresh.allocate(3)) << "allocation " << i;
  }
  expect_same_state();
}

using PolicyPair = std::tuple<SanitizePolicy, PlacementPolicy>;

class ResetMatchesFresh : public ::testing::TestWithParam<PolicyPair> {};

TEST_P(ResetMatchesFresh, AfterAnyHistory) {
  const auto [sanitize, placement] = GetParam();
  // The reset target differs from the history's policies and seed.
  const auto next = [](const auto& values, auto v) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == v) return values[(i + 1) % values.size()];
    }
    return v;
  };
  Fixture f;
  auto a = f.make(sanitize, placement);
  const FrameAllocatorConfig own = a.config();
  FrameAllocatorConfig other = own;
  other.sanitize = next(kSanitizePolicies, sanitize);
  other.placement = next(kPlacementPolicies, placement);
  other.seed = 77;
  FrameAllocatorConfig smaller = other;
  smaller.first_pfn = 0x180;
  smaller.frame_count = 40;

  // expect_same_as_fresh drains the pool, so each history after it
  // starts from a reset of its own.
  run_history(a, f.dram, 11, /*exhaust=*/true);
  a.reset(other);
  expect_same_as_fresh(a, f.dram);

  for (std::uint64_t seed = 12; seed < 20; ++seed) {
    a.reset(own);
    run_history(a, f.dram, seed, /*exhaust=*/false);
    a.reset(other);
    expect_same_as_fresh(a, f.dram);
  }

  // Shape-changing resets: a smaller pool elsewhere, then back.
  a.reset(own);
  run_history(a, f.dram, 20, /*exhaust=*/false);
  a.reset(smaller);
  expect_same_as_fresh(a, f.dram);
  a.reset(smaller);
  run_history(a, f.dram, 21, /*exhaust=*/false);
  a.reset(own);
  expect_same_as_fresh(a, f.dram);
}

std::string policy_pair_name(
    const ::testing::TestParamInfo<PolicyPair>& info) {
  constexpr std::array kSanitizeNames{"None", "ZeroOnFree", "ZeroOnAlloc"};
  constexpr std::array kPlacementNames{"Lifo", "Fifo", "Randomized"};
  const auto [sanitize, placement] = info.param;
  return std::string{kSanitizeNames[static_cast<std::size_t>(sanitize)]} +
         "_" + kPlacementNames[static_cast<std::size_t>(placement)];
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicyPairs, ResetMatchesFresh,
    ::testing::Combine(::testing::ValuesIn(kSanitizePolicies),
                       ::testing::ValuesIn(kPlacementPolicies)),
    policy_pair_name);

}  // namespace
}  // namespace msa::mem
