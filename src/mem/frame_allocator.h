// Physical page-frame allocator for the board's local DRAM.
//
// This is where the paper's first vulnerability lives: PetaLinux returns a
// terminated process's frames to the free pool *without clearing them*,
// and hands dirty frames to the next requester. The allocator makes every
// relevant knob an explicit policy:
//
//   SanitizePolicy::kNone        — the vulnerable PetaLinux behaviour.
//   SanitizePolicy::kZeroOnFree  — defense: scrub when frames are released.
//   SanitizePolicy::kZeroOnAlloc — defense: scrub before frames are reused
//                                  (residue persists in DRAM while free!).
//
//   PlacementPolicy::kSequentialLifo — deterministic layout (paper's
//                                      setting; enables offline profiling).
//   PlacementPolicy::kSequentialFifo — deterministic, delays reuse.
//   PlacementPolicy::kRandomized     — physical-layout randomization
//                                      (the paper's §VI defense #3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dram/dram_model.h"
#include "util/prng.h"

namespace msa::mem {

using Pfn = std::uint64_t;  ///< page frame number (physical addr >> 12)

enum class SanitizePolicy { kNone, kZeroOnFree, kZeroOnAlloc };
enum class PlacementPolicy { kSequentialLifo, kSequentialFifo, kRandomized };

struct FrameAllocatorConfig {
  Pfn first_pfn = 0;             ///< first allocatable frame
  std::uint64_t frame_count = 0; ///< number of allocatable frames
  SanitizePolicy sanitize = SanitizePolicy::kNone;
  PlacementPolicy placement = PlacementPolicy::kSequentialLifo;
  std::uint64_t seed = 1;        ///< PRNG seed for kRandomized
};

struct FrameAllocatorStats {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t dirty_reuses = 0;   ///< frames handed out still holding data
  std::uint64_t frames_scrubbed = 0;
  std::uint64_t bytes_scrubbed = 0;
};

/// Per-frame bookkeeping visible to forensics tooling and tests.
struct FrameInfo {
  std::int64_t owner_pid = 0;   ///< 0 = free
  std::int64_t last_owner = 0;  ///< pid that most recently dirtied it
  bool ever_used = false;
};

class PageFrameAllocator {
 public:
  static constexpr std::uint32_t kPageSize = 4096;
  static constexpr std::uint32_t kPageShift = 12;

  /// The allocator scrubs through `dram` when a sanitize policy demands
  /// it; the reference must outlive the allocator.
  PageFrameAllocator(dram::DramModel& dram, FrameAllocatorConfig config);

  /// Reinitializes in place to exactly the state a freshly constructed
  /// allocator over the same DRAM would have (frame table, free-list
  /// order, PRNG, stats), reusing vector storage — the board-pooling
  /// fast path.
  ///
  /// Cost: a same-shape reset (unchanged first_pfn and frame_count) is
  /// O(frames touched since the last reset): it clears only the frame
  /// table entries ever allocated and rewrites only the free-list slots
  /// that can differ from the canonical order. A shape change rebuilds
  /// both tables in O(pool), exactly as construction does.
  void reset(FrameAllocatorConfig config);

  [[nodiscard]] const FrameAllocatorConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const FrameAllocatorStats& stats() const noexcept { return stats_; }

  /// Allocates one frame for `owner_pid`, which must be nonzero (0 marks
  /// a free frame). Returns std::nullopt when the pool is exhausted.
  [[nodiscard]] std::optional<Pfn> allocate(std::int64_t owner_pid);

  /// Releases a frame. Precondition: currently allocated. Applies the
  /// free-time sanitize policy.
  void free(Pfn pfn);

  /// Frame metadata (owner tracking); throws std::out_of_range for frames
  /// outside the pool.
  [[nodiscard]] const FrameInfo& info(Pfn pfn) const;

  [[nodiscard]] std::uint64_t free_frames() const noexcept {
    return free_count_;
  }
  [[nodiscard]] std::uint64_t used_frames() const noexcept {
    return config_.frame_count - free_count_;
  }

  /// All frames currently free but previously used and still holding
  /// nonzero bytes (i.e. residue if sanitize policy is kNone), ascending.
  /// Forensics/defense-evaluation helper; O(frames ever used).
  [[nodiscard]] std::vector<Pfn> dirty_free_frames() const;

  [[nodiscard]] static dram::PhysAddr frame_to_phys(Pfn pfn) noexcept {
    return static_cast<dram::PhysAddr>(pfn) << kPageShift;
  }
  [[nodiscard]] static Pfn phys_to_frame(dram::PhysAddr addr) noexcept {
    return addr >> kPageShift;
  }

 private:
  void init();
  void check_pool() const;
  /// Restores the canonical free-list slots from free_low_water_ up,
  /// marks every frame free again and clears the stats.
  void rewind();
  [[nodiscard]] std::size_t index_of(Pfn pfn) const;
  /// The k-th free-list entry, oldest (FIFO end) first.
  [[nodiscard]] Pfn& free_entry(std::uint64_t k) noexcept;
  void scrub(Pfn pfn);

  dram::DramModel& dram_;
  FrameAllocatorConfig config_;
  // The free list is a ring of frame_count slots holding free_count_
  // entries from free_head_; the newest entry is the next LIFO
  // candidate. Only FIFO moves the head. The canonical (freshly built)
  // list has slot j = first_pfn + frame_count-1-j, head 0, all full, so
  // LIFO hands out ascending PFNs first — the deterministic low-to-high
  // layout the paper's profiling step relies on. A slot can differ from
  // canonical only if it lies at or above free_low_water_ or its
  // canonical frame is in touched_, which is what makes reset cheap.
  std::vector<Pfn> free_list_;
  std::uint64_t free_head_ = 0;
  std::uint64_t free_count_ = 0;
  std::uint64_t free_low_water_ = 0;  // min free_count_ since (re)init
  std::vector<FrameInfo> frames_;     // indexed by pfn - first_pfn
  std::vector<std::size_t> touched_;  // frames_ indices with ever_used set
  util::Prng prng_;
  FrameAllocatorStats stats_;
};

}  // namespace msa::mem
