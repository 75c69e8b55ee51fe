// Profile-cache tests: key discrimination, the per-key once-latch under
// concurrency, board-pool reuse purity (a board that a profile or a
// victim trial left behind must yield the same profile, and the same
// trial, a fresh board would), seed invariance (the property that makes
// caching across reseeded trials sound), and failure caching.
//
// Cache observability lives on the process-wide obs metrics registry, so
// these tests assert DELTAS of the cache.* counters around each
// operation rather than absolute values (gtest runs tests in one binary
// sequentially, so a snapshot-before/delta-after window is race-free).
#include "attack/profile_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/profiler.h"
#include "defense/presets.h"
#include "obs/metrics.h"

namespace msa::attack {
namespace {

/// Snapshot of the profile and board-pool cache.* registry counters;
/// subtract two snapshots to get the traffic a code region generated.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t boards_built = 0;
  std::uint64_t boards_reused = 0;

  static CacheCounters now() {
    return CacheCounters{obs::counter("cache.profile_hits").value(),
                         obs::counter("cache.profile_misses").value(),
                         obs::counter("cache.victim_boards_built").value(),
                         obs::counter("cache.victim_boards_reused").value()};
  }

  [[nodiscard]] CacheCounters operator-(const CacheCounters& base) const {
    return CacheCounters{hits - base.hits, misses - base.misses,
                         boards_built - base.boards_built,
                         boards_reused - base.boards_reused};
  }
};

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

void expect_same_profile(const ModelProfile& a, const ModelProfile& b) {
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_EQ(a.image_offset, b.image_offset);
  EXPECT_EQ(a.image_width, b.image_width);
  EXPECT_EQ(a.image_height, b.image_height);
  EXPECT_EQ(a.heap_bytes, b.heap_bytes);
  EXPECT_EQ(a.path_string_offset, b.path_string_offset);
}

TEST(ProfileKey, DiscriminatesTheLayoutKnobs) {
  const ScenarioConfig base = small_config();
  const ProfileKey key = ProfileKey::from_config(base);

  ScenarioConfig other = base;
  other.model_name = "squeezenet_pt";
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.image_width = 64;
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.system.placement = mem::PlacementPolicy::kRandomized;
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.system.heap_va_aslr = true;
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.attacker_uid = 4242;
  EXPECT_NE(ProfileKey::from_config(other), key);
}

TEST(ProfileKey, IgnoresSeedAndVictimSideKnobs) {
  // Per-trial reseeding and the victim's defensive policies must map to
  // the SAME key, or the cache would never hit inside a campaign.
  const ScenarioConfig base = small_config();
  const ProfileKey key = ProfileKey::from_config(base);

  ScenarioConfig other = base;
  other.system.seed ^= 0xDEADBEEFULL;
  other.image_seed ^= 0xDEADBEEFULL;
  EXPECT_EQ(ProfileKey::from_config(other), key);

  other = base;
  other.system.sanitize = mem::SanitizePolicy::kZeroOnFree;
  other.acl.mode = dbg::AclMode::kDisabled;
  other.firewall = dbg::FirewallMode::kOwnerOrResidue;
  other.attack_delay_s = 60.0;
  EXPECT_EQ(ProfileKey::from_config(other), key);
}

TEST(ProfileCache, HitReturnsTheProfiledValue) {
  ProfileCache cache;
  const ScenarioConfig cfg = small_config();
  const ModelProfile direct = profile_on_twin_board(cfg);
  const CacheCounters before = CacheCounters::now();
  const ModelProfile first = cache.get_or_profile(cfg);
  const ModelProfile second = cache.get_or_profile(cfg);
  expect_same_profile(first, direct);
  expect_same_profile(second, direct);
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProfileCache, SeedChangesHitTheSameEntry) {
  // The invariant the campaign's byte-identity rests on: a profile
  // served to a reseeded trial equals the profile that trial would have
  // measured itself.
  ProfileCache cache;
  ScenarioConfig cfg = small_config();
  const CacheCounters before = CacheCounters::now();
  (void)cache.get_or_profile(cfg);

  ScenarioConfig reseeded = cfg;
  reseeded.system.seed ^= 0x1234567890ULL;
  reseeded.image_seed ^= 0x42ULL;
  const ModelProfile cached = cache.get_or_profile(reseeded);
  const CacheCounters delta = CacheCounters::now() - before;
  expect_same_profile(cached, profile_on_twin_board(reseeded));
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, 1u);
}

TEST(ProfileCache, RandomizedPlacementProfileIsSeedInvariant) {
  // Physical-layout randomization scrambles frame placement, but the
  // scrape reassembles in VA order — profiles must not depend on the
  // seed even there, or caching under the physical_aslr defense would
  // corrupt campaign results.
  ScenarioConfig cfg =
      defense::preset("physical_aslr").apply(small_config());
  ScenarioConfig reseeded = cfg;
  reseeded.system.seed ^= 0xABCDEFULL;
  expect_same_profile(profile_on_twin_board(cfg),
                      profile_on_twin_board(reseeded));

  ProfileCache cache;
  expect_same_profile(cache.get_or_profile(cfg),
                      profile_on_twin_board(reseeded));
}

TEST(ProfileCache, ConcurrentMissesOnOneKeyProfileExactlyOnce) {
  // 8 threads race on a cold key: the once-latch must let exactly one
  // profile (1 miss) and serve the other 7 as hits, all with identical
  // bytes.
  ProfileCache cache;
  const ScenarioConfig cfg = small_config();
  const ModelProfile direct = profile_on_twin_board(cfg);

  constexpr unsigned kThreads = 8;
  std::vector<ModelProfile> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const CacheCounters before = CacheCounters::now();
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = cache.get_or_profile(cfg); });
  }
  for (auto& t : threads) t.join();

  for (const ModelProfile& p : results) expect_same_profile(p, direct);
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, kThreads - 1);
  EXPECT_EQ(delta.boards_built, 1u);
  EXPECT_EQ(delta.boards_reused, 0u);
}

TEST(ProfileCache, DistinctModelsMissSeparatelyAndReuseBoards) {
  // Sequential misses on the same board shape: the second model must
  // profile on the first's parked board, rebooted by acquire(), and still
  // match a fresh-board profile bit for bit — the pool-reuse purity
  // property.
  ProfileCache cache;
  ScenarioConfig cfg = small_config();
  const CacheCounters before = CacheCounters::now();
  (void)cache.get_or_profile(cfg);

  ScenarioConfig other = cfg;
  other.model_name = "squeezenet_pt";
  const ModelProfile reused_board = cache.get_or_profile(other);
  const CacheCounters delta = CacheCounters::now() - before;
  expect_same_profile(reused_board, profile_on_twin_board(other));

  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.hits, 0u);
  EXPECT_EQ(delta.boards_built, 1u);
  EXPECT_EQ(delta.boards_reused, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProfileCache, DifferentPlacementSharesOneBoardAndMatchesFresh) {
  // Placement is a reset() input, not part of the pool's bucket key: the
  // randomized profile reuses the sequential profile's board, and the
  // reboot leaves nothing of the first layout behind.
  ProfileCache cache;
  ScenarioConfig sequential = small_config();
  ScenarioConfig randomized =
      defense::preset("physical_aslr").apply(small_config());
  const CacheCounters before = CacheCounters::now();
  expect_same_profile(cache.get_or_profile(sequential),
                      profile_on_twin_board(sequential));
  expect_same_profile(cache.get_or_profile(randomized),
                      profile_on_twin_board(randomized));
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.boards_built, 1u);
  EXPECT_EQ(delta.boards_reused, 1u);
}

TEST(ProfileCache, ProfilingFailureIsCachedAndRethrown) {
  // An unknown model makes the profiler throw; the cache must rethrow
  // the same error on the first call AND on later lookups (matching the
  // uncached behaviour of failing every trial), without deadlocking the
  // once-latch.
  ProfileCache cache;
  ScenarioConfig cfg = small_config();
  cfg.model_name = "no_such_model";
  const CacheCounters before = CacheCounters::now();
  EXPECT_THROW((void)cache.get_or_profile(cfg), std::invalid_argument);
  EXPECT_THROW((void)cache.get_or_profile(cfg), std::invalid_argument);
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, 1u);

  // A healthy key still works after a failed one, on the board the
  // failed profile parked.
  ScenarioConfig good = small_config();
  expect_same_profile(cache.get_or_profile(good),
                      profile_on_twin_board(good));
  const CacheCounters after_good = CacheCounters::now() - before;
  EXPECT_EQ(after_good.boards_built, 1u);
  EXPECT_EQ(after_good.boards_reused, 1u);
}

void expect_same_result(const ScenarioResult& with,
                        const ScenarioResult& without,
                        const std::string& label) {
  EXPECT_EQ(with.denied, without.denied) << label;
  EXPECT_EQ(with.denial_reason, without.denial_reason) << label;
  EXPECT_EQ(with.model_identified_correctly,
            without.model_identified_correctly)
      << label;
  EXPECT_DOUBLE_EQ(with.pixel_match, without.pixel_match) << label;
  EXPECT_DOUBLE_EQ(with.psnr, without.psnr) << label;
  EXPECT_DOUBLE_EQ(with.descriptor_pixel_match,
                   without.descriptor_pixel_match)
      << label;
  EXPECT_EQ(with.report.identified_model, without.report.identified_model)
      << label;
  EXPECT_EQ(with.report.signature_hits, without.report.signature_hits)
      << label;
  EXPECT_EQ(with.report.devmem_reads, without.report.devmem_reads) << label;
  EXPECT_EQ(with.report.residue_bytes, without.report.residue_bytes) << label;
  EXPECT_EQ(with.report.transcript, without.report.transcript) << label;
}

TEST(ProfileCache, RunScenarioWithCacheMatchesWithout) {
  // The integration seam run_scenario(config, cache): identical result
  // fields with and without the cache, for a success and a denial cell.
  ProfileCache cache;
  for (const char* preset : {"baseline", "dbg_disabled"}) {
    const ScenarioConfig cfg =
        defense::preset(preset).apply(small_config());
    expect_same_result(run_scenario(cfg, &cache), run_scenario(cfg), preset);
  }
}

TEST(ProfileCache, ProfilesAndTrialsShareBoardsBothWays) {
  // One pool serves twin profiles and victim trials, so each side must
  // be immune to what the other parks. A sanitize-free, randomized
  // placement trial leaves its victim's residue scattered over the
  // board; a profile taken next on that board must equal a fresh twin's.
  // And a trial on the board that profile left must equal a trial on a
  // fresh board.
  ScenarioConfig dirty = defense::preset("physical_aslr").apply(small_config());
  dirty.system.sanitize = mem::SanitizePolicy::kNone;
  ScenarioConfig other_model = dirty;
  other_model.model_name = "squeezenet_pt";
  // Same profile key as other_model (the seed is not part of it). A
  // post-mortem sweep reads free frames too, so it would see any residue
  // the profile left behind.
  ScenarioConfig trial = other_model;
  trial.system.seed ^= 0x5151ULL;
  trial.post_mortem_scan = true;
  // Fresh-board references first: uncached runs build boards of their
  // own, which the counter window below must not see.
  const ScenarioResult dirty_fresh = run_scenario(dirty);
  const ModelProfile other_model_fresh = profile_on_twin_board(other_model);
  const ScenarioResult trial_fresh = run_scenario(trial);

  ProfileCache cache;
  const CacheCounters before = CacheCounters::now();
  expect_same_result(run_scenario(dirty, &cache), dirty_fresh,
                     "dirtying trial");
  // Taken as a twin, the board that trial parked holds exactly the DRAM
  // a fresh twin boots with: none of the victim's residue survives.
  {
    ScenarioConfig twin = dirty;
    twin.system = twin_system_config(dirty);
    const dram::DramConfig& window = twin.system.board;
    std::unique_ptr<VictimBoardPool::Board> board =
        cache.victim_boards().acquire(twin);
    const os::PetaLinuxSystem fresh{twin.system};
    EXPECT_EQ(board->system.dram().checksum(window.base, window.size),
              fresh.dram().checksum(window.base, window.size));
    cache.victim_boards().release(twin, std::move(board));
  }
  expect_same_profile(cache.get_or_profile(other_model), other_model_fresh);
  // A profile hit, so the trial runs on the board the miss above parked.
  expect_same_result(run_scenario(trial, &cache), trial_fresh,
                     "trial after profile");

  // Single-threaded, so every acquire after the first reused one board.
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.boards_built, 1u);
  EXPECT_EQ(delta.boards_reused, 4u);
  EXPECT_EQ(delta.misses, 2u);
}

}  // namespace
}  // namespace msa::attack
