// Cross-cell profile cache + the one board pool behind it.
//
// Offline profiling is pure in (model, image geometry, layout policy):
// the attacker's twin board is deterministic, and the profile records
// only heap-relative offsets, so re-running OfflineProfiler for every
// trial of a campaign repeats identical work. ProfileCache memoizes
// profiles under a key of exactly the knobs that can change the result;
// notably the board seed is NOT part of the key — the scrape reassembles
// the heap in VA order, so physical placement and heap-base randomization
// cannot alter the profiled offsets (pinned by the cache tests).
//
// Concurrency contract (the campaign determinism contract depends on it):
//   * per-key once-latch — when N workers miss the same key at once,
//     exactly one profiles; the rest block and reuse its result, so
//     misses == distinct keys and hits == lookups - misses for any
//     thread count and schedule;
//   * a profiling failure is cached and rethrown to every waiter and to
//     every later lookup of the key, matching the uncached behaviour of
//     profile_on_twin_board throwing on each call.
//
// Boards: profiles and trials draw from one VictimBoardPool. acquire()
// reboots a parked board to exactly what a fresh boot of the requested
// config would give, so a cache miss asks it for the twin config
// (twin_system_config) and gets a fresh twin board, whatever the last
// trial or profile left on it; the miss parks the board again
// afterwards, also when the profile threw.
// Cache observability lives on the obs metrics registry: the counters
// cache.profile_hits / cache.profile_misses / cache.victim_boards_built /
// cache.victim_boards_reused aggregate process-wide, and the campaign
// runner snapshots per-sweep hit/miss deltas into SweepReport's
// never-serialized telemetry fields.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attack/scenario.h"
#include "os/system.h"
#include "vitis/runtime.h"

namespace msa::attack {

/// Identity of an attacker twin board: every SystemConfig field that can
/// change board behaviour, except the seed and boot time (profiles are
/// invariant to both — see file comment).
struct TwinBoardKey {
  std::string board_name;
  dram::PhysAddr dram_base = 0;
  std::uint64_t dram_size = 0;
  std::uint32_t dram_page_size = 0;
  mem::Pfn pool_first_pfn = 0;
  std::uint64_t pool_frames = 0;
  mem::PlacementPolicy placement = mem::PlacementPolicy::kSequentialLifo;
  mem::VirtAddr heap_va_base = 0;
  bool heap_va_aslr = false;
  os::Uid attacker_uid = 0;

  [[nodiscard]] static TwinBoardKey from_config(const ScenarioConfig& config);
  auto operator<=>(const TwinBoardKey&) const = default;
};

/// Cache key: the twin board identity plus what the profiler is asked to
/// profile on it.
struct ProfileKey {
  TwinBoardKey board;
  std::string model_name;
  std::uint32_t image_width = 0;
  std::uint32_t image_height = 0;

  [[nodiscard]] static ProfileKey from_config(const ScenarioConfig& config);
  auto operator<=>(const ProfileKey&) const = default;
};

/// Bucket identity for pooled boards, victim and twin alike: only the
/// shape fields that size the board's tables (DRAM window + frame pool).
/// Everything else — seed, placement, sanitize, proc access, clock — is
/// reapplied by PetaLinuxSystem::reset() on acquire, so a stale-state
/// reuse is impossible; bucketing merely keeps storage reuse on
/// same-sized boards.
struct VictimBoardKey {
  std::string board_name;
  dram::PhysAddr dram_base = 0;
  std::uint64_t dram_size = 0;
  mem::Pfn pool_first_pfn = 0;
  std::uint64_t pool_frames = 0;

  [[nodiscard]] static VictimBoardKey from_config(const ScenarioConfig& config);
  auto operator<=>(const VictimBoardKey&) const = default;
};

/// The one pool of boards, for victim trials (run_scenario) and twin
/// profiles (ProfileCache misses) alike: the dominant per-board
/// allocations (sparse DRAM block map, frame table, free list) are
/// reused, and keeping the VitisAiRuntime alongside its board keeps the
/// deserialized XModel cache warm too. acquire() reboots the board via
/// reset(), which reproduces a fresh construction of the requested
/// config byte for byte, so boards may be parked in any state — dirty
/// from a sanitize-free victim trial, half-way through a profile that
/// threw — and a board serves a twin profile and a victim trial in
/// turn. Because a bucket holds only same-shape boards, that reboot
/// costs O(what the last user touched) — its DRAM blocks and allocated
/// frames — not O(board): a few microseconds on ZCU104 instead of
/// rebuilding the 128K-frame pool.
class VictimBoardPool {
 public:
  struct Board {
    os::PetaLinuxSystem system;
    vitis::VitisAiRuntime runtime;

    explicit Board(const os::SystemConfig& config)
        : system{config}, runtime{system} {}
  };

  /// Returns a board in exactly the state `PetaLinuxSystem{config.system}`
  /// would construct (per-trial seeding included), reusing a parked
  /// board's storage when the shape matches.
  [[nodiscard]] std::unique_ptr<Board> acquire(const ScenarioConfig& config);

  /// Parks the board for reuse, in whatever state the trial left it.
  void release(const ScenarioConfig& config, std::unique_ptr<Board> board);

 private:
  std::mutex mutex_;
  std::map<VictimBoardKey, std::vector<std::unique_ptr<Board>>> idle_;
};

/// Thread-safe memo of profile_on_twin_board. One instance is shared
/// across every cell and trial of a campaign sweep; it also carries the
/// board pool (used by its own misses and by trials) and the victim-input
/// memo, so everything the runner shares across trials lives behind one
/// pointer.
class ProfileCache {
 public:
  /// Returns the profile for this config's key, profiling it on first use
  /// on a board from victim_boards() rebooted as the twin. Rethrows a
  /// cached profiling failure on every lookup of the failed key.
  [[nodiscard]] ModelProfile get_or_profile(const ScenarioConfig& config);

  /// Memoized victim input (make_test_image + optional corruption) keyed
  /// by (width, height, seed, corrupt knobs). Bounded LRU: trial
  /// reseeding makes most image seeds unique, so the memo pays off on
  /// the repeated trial-0 / same-cell lookups without growing with the
  /// grid.
  [[nodiscard]] std::shared_ptr<const img::Image> victim_input(
      const ScenarioConfig& config);

  /// The board pool shared by trials and profile misses.
  [[nodiscard]] VictimBoardPool& victim_boards() noexcept {
    return victim_pool_;
  }

  /// Distinct keys ever looked up (including failed ones).
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::mutex mutex;
    std::condition_variable ready_cv;
    bool claimed = false;  ///< a thread is (or was) profiling this key
    bool ready = false;    ///< profile or error is published
    ModelProfile profile;
    std::exception_ptr error;
  };

  struct InputKey {
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::uint64_t seed = 0;
    bool corrupt = false;
    double corrupt_fraction = 0.0;

    auto operator<=>(const InputKey&) const = default;
  };
  static constexpr std::size_t kInputCacheCap = 64;

  VictimBoardPool victim_pool_;
  mutable std::mutex mutex_;
  std::map<ProfileKey, std::shared_ptr<Entry>> entries_;

  std::mutex input_mutex_;
  /// LRU list (front = most recent) + index into it.
  std::list<std::pair<InputKey, std::shared_ptr<const img::Image>>> input_lru_;
  std::map<InputKey,
           std::list<std::pair<InputKey,
                               std::shared_ptr<const img::Image>>>::iterator>
      input_index_;
};

}  // namespace msa::attack
