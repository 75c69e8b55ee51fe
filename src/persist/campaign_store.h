// Durable campaign results: one record per finished trial, one per
// completed cell, streamed into an append-only RecordWriter file as
// workers finish. A store file belongs to exactly one (grid, shard): the
// manifest record written first pins the grid fingerprint, full-grid cell
// count, trials per cell, trial salt and shard coordinates, so a resumed
// or merged sweep can refuse a store produced by a different experiment.
//
// Durability contract: complete_cell() flushes, so a killed process loses
// at most the trials of cells that had not completed — exactly the cells
// a resume re-runs. Trial records of an incomplete cell may therefore
// appear twice after a resume; readers deduplicate by (cell, trial),
// which is lossless because trials are deterministic functions of
// (cell, trial, salt).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/report.h"
#include "persist/record_io.h"

namespace msa::attack {
struct ScenarioResult;
}

namespace msa::persist {

/// Current LOG format. v2 added the serialized axis schema to the
/// manifest and the coordinate-carrying cell record (kRecCellV2); v1
/// stores remain readable — decode synthesizes the legacy four-axis
/// schema for them — but cannot be resumed by a v2 writer.
inline constexpr std::uint32_t kStoreFormatVersion = 2;

/// Effective format of a SEGMENTED store: a v2 write-ahead log plus a
/// `.levels` sidecar naming sorted block-indexed segments (see
/// persist/manifest.h). v3 changes no log bytes — the log manifest still
/// encodes version 2, so flat and segmented stores of one sweep remain
/// identity-equal and mergeable — which is why this is a separate
/// constant rather than a bump of kStoreFormatVersion. Readers report it
/// via StoreContents::format / StoreReader::format_version().
inline constexpr std::uint32_t kSegmentedStoreFormat = 3;

/// Identity of the sweep a store file belongs to.
struct StoreManifest {
  std::uint32_t version = kStoreFormatVersion;  ///< format the file was written in
  std::uint64_t grid_fingerprint = 0;  ///< campaign::GridBuilder::fingerprint
  std::uint64_t grid_cells = 0;        ///< FULL (unsharded) grid size
  std::uint32_t trials_per_cell = 0;
  std::uint64_t trial_salt = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Ordered swept-axis schema (GridBuilder::axis_schema). For a v1
  /// store this is synthesized: the legacy four axes with empty value
  /// lists (v1 never recorded the values; cells still carry them).
  std::vector<campaign::AxisSpec> axes;

  friend bool operator==(const StoreManifest&, const StoreManifest&) = default;
};

/// On-disk encoding of the manifest payload — shared by campaign stores
/// and lease logs (both pin the same sweep identity so a stray file from
/// a different experiment is rejected).
[[nodiscard]] std::vector<std::uint8_t> encode_store_manifest(
    const StoreManifest& m);
[[nodiscard]] StoreManifest decode_store_manifest(
    std::span<const std::uint8_t> payload);

/// Human-readable field-by-field diff, "" when equal (error messages).
[[nodiscard]] std::string describe_manifest_mismatch(const StoreManifest& have,
                                                     const StoreManifest& want);

/// One scenario run, keyed by (global cell index, trial index). Carries
/// every field CellStats::accumulate consumes, with doubles bit-exact, so
/// per-cell aggregates rebuilt from the trial stream match the in-memory
/// sweep byte for byte.
struct TrialRecord {
  std::uint64_t cell_index = 0;
  std::uint32_t trial = 0;
  bool denied = false;
  bool model_identified = false;
  double pixel_match = 0.0;
  double psnr = 0.0;
  double descriptor_pixel_match = 0.0;
  std::string denial_reason;

  [[nodiscard]] static TrialRecord from_result(
      std::uint64_t cell_index, std::uint32_t trial,
      const attack::ScenarioResult& result);
};

/// Durability knobs beyond CampaignStore's per-cell flush.
struct StoreOptions {
  /// When nonzero, fsync(2) the store after every K completed cells so
  /// results survive power loss, not just process death. Off by
  /// default: fsync per cell can dominate a fast sweep, and the
  /// per-cell flush already covers the kill/crash cases the resume
  /// machinery is built for.
  unsigned fsync_every = 0;
};

/// Writable store bound to one shard's file. Thread-safe: workers append
/// trials and complete cells concurrently.
class CampaignStore {
 public:
  enum class Mode {
    kCreate,          ///< fresh file; an existing one is an error
    kResume,          ///< existing file required; manifest must match
    kCreateOrResume,  ///< resume if the file exists, else create
  };

  /// Opens `path`. On resume the torn tail (if any) is truncated and the
  /// completed-cell map reloaded; a manifest that does not equal
  /// `manifest` throws std::runtime_error (wrong grid / trials / shard).
  CampaignStore(const std::string& path, const StoreManifest& manifest,
                Mode mode, StoreOptions options = {});

  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  /// Streams one finished trial; buffered until the owning cell completes.
  void append_trial(const TrialRecord& trial);

  /// Marks a cell done: writes its aggregate stats and flushes, making
  /// the cell (and every buffered trial before it) durable.
  void complete_cell(const campaign::CellStats& stats);

  [[nodiscard]] bool cell_complete(std::uint64_t cell_index) const;
  /// Stored aggregate for a completed cell, nullptr when incomplete.
  [[nodiscard]] const campaign::CellStats* completed_stats(
      std::uint64_t cell_index) const;
  [[nodiscard]] std::size_t completed_count() const;
  /// Global indices of every completed cell, ascending (the lease
  /// scheduler seeds its "already done" view from this on restart).
  [[nodiscard]] std::vector<std::uint64_t> completed_cells() const;

  /// fsync the store now, regardless of the batching option (the final
  /// durability point a caller can take at sweep end).
  void sync();

  [[nodiscard]] const StoreManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Resume path: single pass over the existing log that validates the
  /// on-disk manifest and reloads completed_ (log cells, then the cells
  /// of every segment open_segment_tier opens), and returns the byte
  /// offset of the last intact frame (RecordWriter's kAppend point).
  /// Must run before writer_ opens — declaration order matters below.
  [[nodiscard]] std::uint64_t scan_existing();

  mutable std::mutex mutex_;
  std::string path_;
  StoreManifest manifest_;
  StoreOptions options_;
  std::unordered_map<std::uint64_t, campaign::CellStats> completed_;
  unsigned cells_since_sync_ = 0;  ///< fsync batching counter
  bool resuming_ = false;
  bool manifest_on_disk_ = false;  ///< set by scan_existing()
  // Writer last: constructed after the resume scan decided the append
  // point, so the file is read exactly once on resume.
  RecordWriter writer_;
};

/// Cell-coordinate predicate: AND of per-axis allowed-label clauses (a
/// cell matches when, for every clause, its value on that axis — by
/// canonical label — is one of the listed labels). Empty filter = match
/// everything. This is the `--cells AXIS=VALUE[,...]` CLI surface, and
/// the thing StoreReader turns into indexed block reads on a segmented
/// store.
struct CellFilter {
  struct Clause {
    std::string axis;
    std::vector<std::string> labels;
  };
  std::vector<Clause> clauses;

  [[nodiscard]] bool empty() const noexcept { return clauses.empty(); }
  [[nodiscard]] bool matches(
      const std::vector<campaign::AxisCoordinate>& coords) const;

  /// Parses one "AXIS=V1[,V2...]" spec into a clause of canonical
  /// labels ("5.0" and "5" both become "5", "true" becomes "1"); throws
  /// std::invalid_argument on a malformed spec (no '=', empty axis or
  /// value list), an unknown axis, or a value not of the axis's kind.
  /// Values are not range-checked: a store may hold any of them.
  /// Repeated flags append clauses (AND).
  static Clause parse_clause(const std::string& spec);

  /// "AXIS=VALUE" for the first clause label that `listed` (axis ->
  /// labels the opened stores list for it) does not hold, or "" when
  /// every label is listed: a misspelt value that would select nothing.
  [[nodiscard]] std::string first_unlisted(
      const std::map<std::string, std::set<std::string>>& listed) const;
};

/// Read-only snapshot of a store file.
struct StoreContents {
  StoreManifest manifest;
  /// kSegmentedStoreFormat when a levels sidecar is present, else the
  /// log manifest's version (1 or 2).
  std::uint32_t format = 0;
  /// Completed cells sorted by global index (duplicates last-wins).
  std::vector<campaign::CellStats> cells;
  /// Trial stream sorted by (cell index, trial), deduplicated last-wins.
  std::vector<TrialRecord> trials;
  /// True when a torn/corrupt tail was dropped while reading the LOG
  /// (segments are immutable and reject damage instead of healing).
  bool truncated_tail = false;
};

/// Reassembles shard stores into the single-process sweep report, cells
/// in grid order: load_sweep plus the static-shard checks. Every store
/// must carry the same shard_count, shard indices must be distinct, no
/// cell may appear in two stores, and the union must cover the full grid
/// — throws std::runtime_error otherwise. A single complete unsharded
/// store is the N=1 case.
[[nodiscard]] campaign::SweepReport merge_stores(
    const std::vector<std::string>& paths);

/// Union of several stores from ONE sweep, with duplicates tolerated —
/// the reader for lease-mode worker stores, where a reclaimed-then-
/// resurrected lease can leave the same cell (bit-identical, because
/// trials are deterministic) in two workers' stores. Stores must agree
/// on fingerprint/grid/trials/salt (shard coordinates are NOT compared,
/// so shard stores can be analyzed with the same call); a duplicated
/// cell or trial whose bytes differ from the first copy throws — that is
/// data corruption or a mixed-up directory, never a legal lease race.
struct SweepData {
  StoreManifest manifest;  ///< identity fields of the first store
  /// Completed cells, deduplicated, ascending global index.
  std::vector<campaign::CellStats> cells;
  /// Trial stream, deduplicated by (cell, trial), ascending.
  std::vector<TrialRecord> trials;
  std::size_t duplicate_cells = 0;   ///< identical copies dropped
  std::size_t duplicate_trials = 0;  ///< identical copies dropped
  bool truncated_tail = false;       ///< any store had a torn tail
  /// For each axis the filter names, every label an opened store lists
  /// for it: the manifest's value list, or the labels on the store's
  /// cells where that list is empty (v1 stores never recorded one).
  std::map<std::string, std::set<std::string>> filter_labels;
};
/// A path that names a directory stands for every "*.store" file
/// directly inside it (a lease-mode workers dir); a directory with none
/// throws. Each read goes through StoreReader (persist/store_reader.h).
/// When `filter` is non-empty only matching completed cells (and their
/// trials) load — on a segmented store via the block index, on a flat
/// store by scan-and-drop — so filtered flat and segmented views of the
/// same data are identical. Orphan trials of never-completed cells are
/// excluded under a filter (their coordinates are unknowable without the
/// cell record).
[[nodiscard]] SweepData load_sweep(const std::vector<std::string>& paths,
                                   const CellFilter& filter = {});

/// Incremental tail reader over one store file for progress views: each
/// poll() parses only the bytes appended since the previous poll and
/// counts trial / completed-cell records. Tolerates a file that does not
/// exist yet and torn tails (both simply yield no new records until the
/// writer catches up — the same heal-on-reparse strategy as
/// LeaseDirScanner). Segment-aware: on a segmented store the per-segment
/// totals come from the levels manifest (no block reads at all), the log
/// tail is followed by offset as before, and a generation bump — a
/// compaction trimming the log under the poller — rebases the counts
/// instead of double- or under-counting. Read-only; safe to point at a
/// live worker's store.
class StoreTailer {
 public:
  explicit StoreTailer(std::string path) : path_{std::move(path)} {}

  struct Counts {
    std::uint64_t trials = 0;  ///< trial records seen (log duplicates included)
    std::uint64_t cells = 0;   ///< completed-cell records seen
  };

  /// Cumulative counts after tailing any newly appended records.
  [[nodiscard]] Counts poll();

 private:
  std::string path_;
  std::uint64_t offset_ = 0;      ///< last intact log frame boundary
  std::uint64_t generation_ = 0;  ///< levels-manifest generation seen
  Counts segment_counts_;         ///< totals from the levels manifest
  Counts log_counts_;             ///< records tailed from the log
};

/// Every "*.store" file directly under `dir`, sorted by path — what a
/// directory argument to load_sweep stands for.
[[nodiscard]] std::vector<std::string> list_store_files(const std::string& dir);

/// Lease-mode merge: load_sweep over the worker stores plus the full-
/// coverage check, yielding the report in grid order — byte-identical to
/// the single-process run. Throws std::runtime_error when cells are
/// missing (sweep still in flight or a worker store was lost).
[[nodiscard]] campaign::SweepReport merge_worker_stores(
    const std::vector<std::string>& paths);

/// Compaction tuning. The default (max_level_bytes = 0) merges the log
/// and every existing segment into one sorted segment — the smallest,
/// fastest-to-query store. A nonzero max_level_bytes keeps a tiered
/// shape instead: the log always flushes to a fresh level-0 segment, and
/// any level whose total bytes exceed the cap merges into the next level
/// — repeated compactions of a growing store then rewrite only the
/// young, small levels instead of the whole history every time.
struct CompactOptions {
  std::uint64_t max_level_bytes = 0;
  /// Segment trial-block target (SegmentWriteOptions::block_bytes).
  std::size_t block_bytes = 64 * 1024;
};

/// Compacts a store into segmented (v3) form, dropping superseded
/// records a resumed or raced sweep leaves behind: duplicate trial
/// records (same cell+trial; last wins), duplicate cell records (last
/// wins), trial records of cells that never completed (a resume re-runs
/// and re-streams them), and the torn log tail if any. The log's
/// completed cells flush into a sorted block-indexed segment, levels
/// merge per `options`, and the log is trimmed to its manifest record
/// (it stays the write-ahead tier for future appends). Unknown record
/// types are preserved verbatim in the log for forward compatibility.
///
/// Crash-safe by write ordering: new segments are fsynced (file and
/// directory) before the levels manifest names them, the manifest
/// replacement is atomic, the trimmed log replaces the old one only
/// after a flush+fsync, and obsolete segment files are deleted last. A
/// crash at any point leaves a readable store — at worst with invisible
/// debris or bit-identical log/segment duplicates that the next
/// compaction clears. Do not compact a store a live worker has open.
///
/// Compacting an already-compacted store with nothing new is a no-op
/// (bytes_after == bytes_before, nothing dropped, generation unchanged).
struct CompactionResult {
  std::uint64_t bytes_before = 0;  ///< log + sidecar + segments
  std::uint64_t bytes_after = 0;
  std::size_t trials_dropped = 0;  ///< duplicates + orphans of incomplete cells
  std::size_t cells_dropped = 0;   ///< superseded duplicate cell records
  std::size_t segments_written = 0;  ///< new segment files this pass
  std::size_t segments_live = 0;     ///< segment files after compaction
  std::uint64_t generation = 0;      ///< levels-manifest generation after
};
[[nodiscard]] CompactionResult compact_store(const std::string& path,
                                             const CompactOptions& options = {});

}  // namespace msa::persist
