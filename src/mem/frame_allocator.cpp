#include "mem/frame_allocator.h"

#include <algorithm>
#include <stdexcept>

namespace msa::mem {

PageFrameAllocator::PageFrameAllocator(dram::DramModel& dram,
                                       FrameAllocatorConfig config)
    : dram_{dram}, config_{config}, prng_{config.seed} {
  init();
}

void PageFrameAllocator::check_pool() const {
  if (config_.frame_count == 0) {
    throw std::invalid_argument("PageFrameAllocator: empty pool");
  }
  const dram::PhysAddr pool_end =
      frame_to_phys(config_.first_pfn + config_.frame_count);
  if (!dram_.config().contains(frame_to_phys(config_.first_pfn),
                               pool_end - frame_to_phys(config_.first_pfn))) {
    throw std::invalid_argument("PageFrameAllocator: pool outside DRAM window");
  }
}

void PageFrameAllocator::init() {
  check_pool();
  frames_.assign(config_.frame_count, FrameInfo{});
  free_list_.resize(config_.frame_count);
  touched_.clear();
  free_low_water_ = 0;  // rebuild every free-list slot
  rewind();
}

void PageFrameAllocator::reset(FrameAllocatorConfig config) {
  const bool same_shape = config.first_pfn == config_.first_pfn &&
                          config.frame_count == config_.frame_count;
  config_ = config;
  prng_ = util::Prng{config.seed};
  if (!same_shape) {
    init();
    return;
  }
  // The DRAM window may have changed even though the pool did not.
  check_pool();
  for (const std::size_t i : touched_) {
    frames_[i] = FrameInfo{};
    free_list_[config_.frame_count - 1 - i] = config_.first_pfn + i;
  }
  touched_.clear();
  rewind();
}

void PageFrameAllocator::rewind() {
  const std::uint64_t n = config_.frame_count;
  for (std::uint64_t j = free_low_water_; j < n; ++j) {
    free_list_[j] = config_.first_pfn + n - 1 - j;
  }
  free_head_ = 0;
  free_count_ = n;
  free_low_water_ = n;
  stats_ = {};
}

std::size_t PageFrameAllocator::index_of(Pfn pfn) const {
  if (pfn < config_.first_pfn || pfn >= config_.first_pfn + config_.frame_count) {
    throw std::out_of_range("PageFrameAllocator: pfn outside pool");
  }
  return static_cast<std::size_t>(pfn - config_.first_pfn);
}

void PageFrameAllocator::scrub(Pfn pfn) {
  dram_.zero_range(frame_to_phys(pfn), kPageSize);
  ++stats_.frames_scrubbed;
  stats_.bytes_scrubbed += kPageSize;
}

Pfn& PageFrameAllocator::free_entry(std::uint64_t k) noexcept {
  std::uint64_t slot = free_head_ + k;
  if (slot >= config_.frame_count) slot -= config_.frame_count;
  return free_list_[slot];
}

std::optional<Pfn> PageFrameAllocator::allocate(std::int64_t owner_pid) {
  if (owner_pid == 0) {
    throw std::invalid_argument(
        "PageFrameAllocator: owner pid 0 marks a free frame");
  }
  if (free_count_ == 0) return std::nullopt;

  Pfn pfn;
  switch (config_.placement) {
    case PlacementPolicy::kSequentialLifo:
      pfn = free_entry(free_count_ - 1);
      break;
    case PlacementPolicy::kSequentialFifo:
      pfn = free_entry(0);
      free_head_ = free_head_ + 1 == config_.frame_count ? 0 : free_head_ + 1;
      break;
    case PlacementPolicy::kRandomized: {
      Pfn& slot = free_entry(prng_.below(free_count_));
      pfn = slot;
      slot = free_entry(free_count_ - 1);
      break;
    }
    default:
      throw std::logic_error("PageFrameAllocator: unknown placement policy");
  }
  --free_count_;
  free_low_water_ = std::min(free_low_water_, free_count_);

  const std::size_t index = index_of(pfn);
  auto& fi = frames_[index];
  const bool dirty = fi.ever_used &&
                     dram_.any_nonzero(frame_to_phys(pfn), kPageSize);
  if (dirty) ++stats_.dirty_reuses;
  if (config_.sanitize == SanitizePolicy::kZeroOnAlloc && fi.ever_used) {
    scrub(pfn);
  }
  if (!fi.ever_used) touched_.push_back(index);
  fi.owner_pid = owner_pid;
  fi.ever_used = true;
  ++stats_.allocations;
  return pfn;
}

void PageFrameAllocator::free(Pfn pfn) {
  auto& fi = frames_[index_of(pfn)];
  if (fi.owner_pid == 0) {
    throw std::logic_error("PageFrameAllocator: double free of frame");
  }
  fi.last_owner = fi.owner_pid;
  fi.owner_pid = 0;
  if (config_.sanitize == SanitizePolicy::kZeroOnFree) {
    scrub(pfn);
  }
  free_entry(free_count_++) = pfn;
  ++stats_.frees;
}

const FrameInfo& PageFrameAllocator::info(Pfn pfn) const {
  return frames_[index_of(pfn)];
}

std::vector<Pfn> PageFrameAllocator::dirty_free_frames() const {
  std::vector<Pfn> out;
  for (const std::size_t i : touched_) {
    const Pfn pfn = config_.first_pfn + i;
    if (frames_[i].owner_pid == 0 &&
        dram_.any_nonzero(frame_to_phys(pfn), kPageSize)) {
      out.push_back(pfn);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace msa::mem
