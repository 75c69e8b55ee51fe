// The one module that knows a campaign store's on-disk tiers: v1/v2
// flat logs and v3 segmented stores (log + levels sidecar + sorted
// segments). Two functions open those tiers, and every reader of a
// store builds on them instead of re-deriving the checks:
//
//  - replay_log(): one pass over the log — manifest agreement, last-wins
//    trial and cell maps, unknown records kept verbatim, torn-tail
//    detection. StoreReader and compact_store use it.
//  - open_segment_tier(): the sidecar and every segment it names, each
//    checked against the log's identity and its SegmentRef sequence.
//    StoreReader, compact_store and CampaignStore resume use it.
//  - decode_log_cell(): the v1/v2 cell-record decode, shared by
//    replay_log and resume's cells-only log pass (resume never decodes
//    trials it would throw away).
//
// StoreReader serves stats, diff/gate and merge (via load_sweep). The
// progress tailer (StoreTailer) reads neither tier through here: it
// counts from the sidecar's SegmentRef totals and tails the log by
// offset.
//
// Merge semantics: segments apply in ascending write sequence, then the
// log tail on top — the same last-wins order as replaying the original
// flat log, which keeps `stats`/`diff`/`gate` byte-identical before and
// after compaction. Cell-range queries (`read_cell`, a non-empty
// CellFilter in `read_matching`) use the segments' first-key block index
// and read only the blocks that can hold the requested cells; the log
// tail is always scanned in full, but after compaction it is just the
// manifest record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/record_io.h"
#include "persist/segment.h"

namespace msa::persist {

/// Decodes a kRecCell (v1) or kRecCellV2 log record into the
/// version-blind cell aggregate.
[[nodiscard]] campaign::CellStats decode_log_cell(const Record& rec);

/// Everything one pass over a store log yields.
struct LogReplay {
  StoreManifest manifest;
  /// Last-wins by cell index / (cell, trial) — the flat replay order.
  std::map<std::uint64_t, campaign::CellStats> cells;
  std::map<std::pair<std::uint64_t, std::uint32_t>, TrialRecord> trials;
  /// Records of types this build does not know, verbatim in log order
  /// (compaction preserves them for forward compatibility).
  std::vector<Record> unknown;
  std::size_t trial_records = 0;  ///< trial records seen, duplicates included
  std::size_t cell_records = 0;   ///< cell records seen, duplicates included
  std::uint64_t valid_bytes = 0;  ///< offset just past the last intact frame
  bool torn_tail = false;
};

/// Replays the log at `path`. Throws std::runtime_error for a missing or
/// misframed log, a log with no manifest record, or one holding two
/// different manifest records.
[[nodiscard]] LogReplay replay_log(const std::string& path);

/// The segmented tier of a store: empty for a flat store.
struct SegmentTier {
  std::optional<LevelsManifest> levels;  ///< nullopt = flat v1/v2 store
  /// One open reader per levels->segments entry, same (ascending
  /// sequence) order; footers and indexes only, no data blocks.
  std::vector<std::unique_ptr<SegmentReader>> segments;
  std::uint64_t bytes = 0;  ///< sidecar + every named segment
};

/// Opens the levels sidecar of the store at `path`, if any, and every
/// segment it names. Throws std::runtime_error for a damaged sidecar or
/// segment, a sidecar whose identity is not `identity`, a segment from a
/// different sweep, or a segment whose sequence differs from its
/// SegmentRef.
[[nodiscard]] SegmentTier open_segment_tier(const std::string& path,
                                            const StoreManifest& identity);

class StoreReader {
 public:
  /// Opens the store through replay_log + open_segment_tier: the whole
  /// log, the sidecar (if present) and every named segment's footer +
  /// index — but no segment data blocks. Throws what those two throw.
  explicit StoreReader(const std::string& path);
  ~StoreReader();

  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  [[nodiscard]] const StoreManifest& manifest() const noexcept {
    return log_.manifest;
  }
  [[nodiscard]] bool segmented() const noexcept {
    return tier_.levels.has_value();
  }
  /// kSegmentedStoreFormat for a segmented store, else the log version.
  [[nodiscard]] std::uint32_t format_version() const noexcept {
    return segmented() ? kSegmentedStoreFormat : log_.manifest.version;
  }
  [[nodiscard]] bool truncated_tail() const noexcept {
    return log_.torn_tail;
  }
  /// Total on-disk footprint: log + sidecar + live segments.
  [[nodiscard]] std::uint64_t store_bytes() const noexcept {
    return store_bytes_;
  }

  /// Every completed cell, ascending global index, duplicates last-wins.
  /// On a segmented store this touches only the (small) cell blocks —
  /// never trial data.
  [[nodiscard]] std::vector<campaign::CellStats> cells() const;

  /// One cell looked up by its axis coordinates: the aggregate plus the
  /// deduplicated trial stream, or nullopt when no such cell completed.
  /// Segmented: one indexed block read per segment that can hold the
  /// key, plus the log tail.
  struct CellData {
    campaign::CellStats stats;
    std::vector<TrialRecord> trials;
  };
  [[nodiscard]] std::optional<CellData> read_cell(
      const std::vector<campaign::AxisCoordinate>& coords) const;

  /// The store restricted to cells matching `filter` (empty filter =
  /// everything, including orphan log trials — byte-equivalent to the
  /// historical full read). Cells ascend by index, trials by
  /// (cell, trial).
  [[nodiscard]] StoreContents read_matching(const CellFilter& filter) const;
  [[nodiscard]] StoreContents read_all() const {
    return read_matching(CellFilter{});
  }

 private:
  // After compaction the log is just the manifest record: segment data
  // is never replayed through it.
  LogReplay log_;
  SegmentTier tier_;
  std::uint64_t store_bytes_ = 0;
};

}  // namespace msa::persist
