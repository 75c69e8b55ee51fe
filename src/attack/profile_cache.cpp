#include "attack/profile_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace msa::attack {

namespace {

obs::Counter& hits_metric() {
  static obs::Counter& c = obs::counter("cache.profile_hits");
  return c;
}
obs::Counter& misses_metric() {
  static obs::Counter& c = obs::counter("cache.profile_misses");
  return c;
}
obs::Counter& victim_built_metric() {
  static obs::Counter& c = obs::counter("cache.victim_boards_built");
  return c;
}
obs::Counter& victim_reused_metric() {
  static obs::Counter& c = obs::counter("cache.victim_boards_reused");
  return c;
}
obs::Counter& input_built_metric() {
  static obs::Counter& c = obs::counter("cache.victim_inputs_built");
  return c;
}
obs::Counter& input_reused_metric() {
  static obs::Counter& c = obs::counter("cache.victim_inputs_reused");
  return c;
}

}  // namespace

TwinBoardKey TwinBoardKey::from_config(const ScenarioConfig& config) {
  const os::SystemConfig& sys = config.system;
  TwinBoardKey key;
  key.board_name = sys.board.board_name;
  key.dram_base = sys.board.base;
  key.dram_size = sys.board.size;
  key.dram_page_size = sys.board.page_size;
  key.pool_first_pfn = sys.pool_first_pfn;
  key.pool_frames = sys.pool_frames;
  key.placement = sys.placement;
  key.heap_va_base = sys.heap_va_base;
  key.heap_va_aslr = sys.heap_va_aslr;
  key.attacker_uid = config.attacker_uid;
  return key;
}

ProfileKey ProfileKey::from_config(const ScenarioConfig& config) {
  ProfileKey key;
  key.board = TwinBoardKey::from_config(config);
  key.model_name = config.model_name;
  key.image_width = config.image_width;
  key.image_height = config.image_height;
  return key;
}

VictimBoardKey VictimBoardKey::from_config(const ScenarioConfig& config) {
  const os::SystemConfig& sys = config.system;
  VictimBoardKey key;
  key.board_name = sys.board.board_name;
  key.dram_base = sys.board.base;
  key.dram_size = sys.board.size;
  key.pool_first_pfn = sys.pool_first_pfn;
  key.pool_frames = sys.pool_frames;
  return key;
}

std::unique_ptr<VictimBoardPool::Board> VictimBoardPool::acquire(
    const ScenarioConfig& config) {
  std::unique_ptr<Board> board;
  {
    const std::lock_guard lock{mutex_};
    const auto it = idle_.find(VictimBoardKey::from_config(config));
    if (it != idle_.end() && !it->second.empty()) {
      board = std::move(it->second.back());
      it->second.pop_back();
    }
  }
  if (board) {
    // Reboot outside the lock; this reapplies every config field the
    // bucket key leaves out (seed, placement, sanitize, clock, ...).
    board->system.reset(config.system);
    victim_reused_metric().add();
    return board;
  }
  board = std::make_unique<Board>(config.system);
  victim_built_metric().add();
  return board;
}

void VictimBoardPool::release(const ScenarioConfig& config,
                              std::unique_ptr<Board> board) {
  const std::lock_guard lock{mutex_};
  idle_[VictimBoardKey::from_config(config)].push_back(std::move(board));
}

std::shared_ptr<const img::Image> ProfileCache::victim_input(
    const ScenarioConfig& config) {
  // corrupt_fraction only matters when corruption is on; normalize it out
  // of the key so uncorrupted lookups share one entry per geometry/seed.
  const InputKey key{config.image_width, config.image_height,
                     config.image_seed, config.corrupt_image,
                     config.corrupt_image ? config.corrupt_fraction : 0.0};
  {
    const std::lock_guard lock{input_mutex_};
    const auto it = input_index_.find(key);
    if (it != input_index_.end()) {
      input_lru_.splice(input_lru_.begin(), input_lru_, it->second);
      input_reused_metric().add();
      return it->second->second;
    }
  }
  // Generate outside the lock; a racing duplicate generation is harmless
  // because both threads produce the identical image.
  auto image = std::make_shared<const img::Image>(make_victim_input(config));
  input_built_metric().add();
  const std::lock_guard lock{input_mutex_};
  auto [it, inserted] = input_index_.try_emplace(key);
  if (!inserted) return it->second->second;
  input_lru_.emplace_front(key, image);
  it->second = input_lru_.begin();
  if (input_lru_.size() > kInputCacheCap) {
    input_index_.erase(input_lru_.back().first);
    input_lru_.pop_back();
  }
  return image;
}

ModelProfile ProfileCache::get_or_profile(const ScenarioConfig& config) {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard lock{mutex_};
    std::shared_ptr<Entry>& slot = entries_[ProfileKey::from_config(config)];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }

  std::unique_lock lock{entry->mutex};
  if (!entry->claimed) {
    // This thread profiles the key; the once-latch (claimed) guarantees
    // no other thread ever will, even after we drop the entry lock.
    entry->claimed = true;
    lock.unlock();
    misses_metric().add();

    ModelProfile profile;
    std::exception_ptr error;
    ScenarioConfig twin = config;
    twin.system = twin_system_config(config);
    std::unique_ptr<VictimBoardPool::Board> board;
    try {
      board = victim_pool_.acquire(twin);
      profile = profile_on(board->system, board->runtime, config);
    } catch (...) {
      error = std::current_exception();
    }
    // Parked even after a throw: acquire() reboots whatever state is left.
    if (board) victim_pool_.release(twin, std::move(board));

    lock.lock();
    entry->profile = std::move(profile);
    entry->error = error;
    entry->ready = true;
    entry->ready_cv.notify_all();
    if (error) std::rethrow_exception(error);
    return entry->profile;
  }

  // Hit: either already published or in flight on another thread.
  entry->ready_cv.wait(lock, [&] { return entry->ready; });
  hits_metric().add();
  if (entry->error) std::rethrow_exception(entry->error);
  return entry->profile;
}

std::size_t ProfileCache::size() const {
  const std::lock_guard lock{mutex_};
  return entries_.size();
}

}  // namespace msa::attack
