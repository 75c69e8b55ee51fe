#include "persist/campaign_store.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "attack/scenario.h"
#include "campaign/axis.h"
#include "persist/encoding.h"
#include "persist/manifest.h"
#include "persist/segment.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"

namespace msa::persist {

namespace {

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace

std::vector<std::uint8_t> encode_store_manifest(const StoreManifest& m) {
  // Always writes the CURRENT format — re-encoding a v1-loaded manifest
  // (compaction) upgrades the file to v2 with the synthesized schema.
  ByteWriter w;
  w.u32(kStoreFormatVersion);
  w.u64(m.grid_fingerprint);
  w.u64(m.grid_cells);
  w.u32(m.trials_per_cell);
  w.u64(m.trial_salt);
  w.u32(m.shard_index);
  w.u32(m.shard_count);
  w.varint(m.axes.size());
  for (const campaign::AxisSpec& axis : m.axes) {
    w.str(axis.name);
    w.u8(static_cast<std::uint8_t>(axis.kind));
    w.varint(axis.values.size());
    for (const campaign::AxisValue& v : axis.values) encode_axis_value(w, v);
  }
  return {w.bytes().begin(), w.bytes().end()};
}

StoreManifest decode_store_manifest(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  const std::uint32_t version = r.u32();
  if (version == 0 || version > kStoreFormatVersion) {
    throw std::runtime_error("persist: unsupported store format version " +
                             std::to_string(version));
  }
  StoreManifest m;
  m.version = version;
  m.grid_fingerprint = r.u64();
  m.grid_cells = r.u64();
  m.trials_per_cell = r.u32();
  m.trial_salt = r.u64();
  m.shard_index = r.u32();
  m.shard_count = r.u32();
  if (m.shard_index >= m.shard_count) {
    throw std::runtime_error("persist: store manifest shard " +
                             std::to_string(m.shard_index) + "/" +
                             std::to_string(m.shard_count) + " out of range");
  }
  if (version == 1) {
    // v1 manifests end here; the four-axis schema was implicit.
    m.axes = legacy_axis_schema();
    return m;
  }
  // Every axis and every value takes at least one byte, so a count
  // beyond the bytes left is damage: reject it before it sizes a reserve.
  const auto checked_count = [&r](const char* what) {
    const std::uint64_t count = r.varint();
    if (count > r.remaining()) {
      throw std::runtime_error("persist: store manifest " + std::string{what} +
                               " count " + std::to_string(count) +
                               " exceeds its payload");
    }
    return count;
  };
  const std::uint64_t axes = checked_count("axis");
  m.axes.reserve(axes);
  for (std::uint64_t i = 0; i < axes; ++i) {
    campaign::AxisSpec spec;
    spec.name = r.str();
    spec.kind = static_cast<campaign::AxisKind>(r.u8());
    const std::uint64_t values = checked_count("axis value");
    spec.values.reserve(values);
    for (std::uint64_t j = 0; j < values; ++j) {
      spec.values.push_back(decode_axis_value(r));
    }
    m.axes.push_back(std::move(spec));
  }
  return m;
}

std::string describe_manifest_mismatch(const StoreManifest& have,
                                       const StoreManifest& want) {
  std::string out;
  auto field = [&](const char* name, auto a, auto b) {
    if (a != b) {
      if (!out.empty()) out += ", ";
      out += std::string(name) + " " + std::to_string(a) + " != " +
             std::to_string(b);
    }
  };
  field("version", have.version, want.version);
  field("grid_fingerprint", have.grid_fingerprint, want.grid_fingerprint);
  field("grid_cells", have.grid_cells, want.grid_cells);
  field("trials_per_cell", have.trials_per_cell, want.trials_per_cell);
  field("trial_salt", have.trial_salt, want.trial_salt);
  field("shard_index", have.shard_index, want.shard_index);
  field("shard_count", have.shard_count, want.shard_count);
  if (!(have.axes == want.axes)) {
    if (!out.empty()) out += ", ";
    auto schema = [](const StoreManifest& m) {
      std::string s;
      for (const campaign::AxisSpec& axis : m.axes) {
        if (!s.empty()) s += '/';
        s += axis.name;
      }
      return s.empty() ? std::string("<none>") : s;
    };
    out += "axis schema [" + schema(have) + "] != [" + schema(want) + "]";
  }
  return out;
}

bool CellFilter::matches(
    const std::vector<campaign::AxisCoordinate>& coords) const {
  for (const Clause& clause : clauses) {
    const campaign::AxisValue* value =
        campaign::find_coord(coords, clause.axis);
    if (value == nullptr) return false;
    const std::string label = value->label();
    if (std::find(clause.labels.begin(), clause.labels.end(), label) ==
        clause.labels.end()) {
      return false;
    }
  }
  return true;
}

CellFilter::Clause CellFilter::parse_clause(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument(
        "cell filter expects AXIS=VALUE[,VALUE...]: " + spec);
  }
  Clause clause;
  clause.axis = spec.substr(0, eq);
  std::size_t start = eq + 1;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end == start) {
      throw std::invalid_argument("cell filter has an empty value: " + spec);
    }
    clause.labels.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (clause.labels.empty()) {
    throw std::invalid_argument("cell filter has no values: " + spec);
  }
  return clause;
}

TrialRecord TrialRecord::from_result(std::uint64_t cell_index,
                                     std::uint32_t trial,
                                     const attack::ScenarioResult& result) {
  TrialRecord t;
  t.cell_index = cell_index;
  t.trial = trial;
  t.denied = result.denied;
  t.model_identified = result.model_identified_correctly;
  t.pixel_match = result.pixel_match;
  t.psnr = result.psnr;
  t.descriptor_pixel_match = result.descriptor_pixel_match;
  t.denial_reason = result.denial_reason;
  return t;
}

CampaignStore::CampaignStore(const std::string& path,
                             const StoreManifest& manifest, Mode mode,
                             StoreOptions options)
    : path_{path},
      manifest_{manifest},
      options_{options},
      resuming_{[&] {
        // A file shorter than the magic is the debris of a kill between
        // create and the magic write — not a resumable store. Only
        // explicit kCreate refuses to clobber it.
        const bool usable = record_file_usable(path);
        if (mode == Mode::kCreate && std::filesystem::exists(path)) {
          throw std::runtime_error(
              "persist: store already exists (resume instead?): " + path);
        }
        if (mode == Mode::kResume && !usable) {
          throw std::runtime_error("persist: no store to resume: " + path);
        }
        if (!usable &&
            std::filesystem::exists(levels_manifest_path(path))) {
          // A sidecar without its log is a half-deleted store; writing a
          // fresh log under it would attach the old segments to a new
          // sweep. Refuse until the debris is cleared.
          throw std::runtime_error(
              "persist: stale levels manifest without its store log "
              "(remove " +
              levels_manifest_path(path) + " and its segments): " + path);
        }
        return usable;
      }()},
      // One pass on resume: validate the manifest, reload completed cells
      // and find the torn-tail cut — all before the writer opens, so a
      // rejected file is never mutated.
      writer_{path,
              resuming_ ? RecordWriter::Mode::kAppend
                        : RecordWriter::Mode::kTruncate,
              resuming_ ? scan_existing() : 0} {
  if (!resuming_ || !manifest_on_disk_) {
    // Fresh store — or an existing file whose every record was torn off.
    writer_.append(kRecManifest, encode_store_manifest(manifest_));
    writer_.flush();
  }
}

std::uint64_t CampaignStore::scan_existing() {
  bool any_records = false;
  RecordReader reader{path_};
  for (std::optional<Record> rec = reader.next(); rec.has_value();
       rec = reader.next()) {
    any_records = true;
    if (rec->type == kRecManifest) {
      manifest_on_disk_ = true;
      const StoreManifest on_disk = decode_store_manifest(rec->payload);
      if (!(on_disk == manifest_)) {
        throw std::runtime_error(
            "persist: store belongs to a different sweep (" +
            describe_manifest_mismatch(on_disk, manifest_) + "): " + path_);
      }
    } else if (rec->type == kRecCell || rec->type == kRecCellV2) {
      campaign::CellStats cell = decode_log_cell(*rec);
      const std::uint64_t index = cell.index;
      completed_[index] = std::move(cell);
    }
    // Trial records are not replayed here: resume re-runs incomplete
    // cells from scratch, and deterministic reseeding reproduces the
    // identical trials.
  }
  if (any_records && !manifest_on_disk_) {
    throw std::runtime_error("persist: store has no manifest record: " +
                             path_);
  }

  // Segmented store: the completed-cell map continues in the segments'
  // cell blocks — the log was trimmed at the last compaction. Only the
  // small cell blocks are read; resume never replays segment trial data,
  // so seeking to the incomplete cells costs O(completed cells), not
  // O(trials).
  const SegmentTier tier = open_segment_tier(path_, manifest_);
  for (const std::unique_ptr<SegmentReader>& segment : tier.segments) {
    for (campaign::CellStats& cell : segment->cells()) {
      const std::uint64_t index = cell.index;
      completed_.emplace(index, std::move(cell));
    }
  }
  return reader.valid_bytes();
}

void CampaignStore::append_trial(const TrialRecord& trial) {
  const std::lock_guard lock{mutex_};
  writer_.append(kRecTrial, encode_trial(trial));
}

void CampaignStore::complete_cell(const campaign::CellStats& stats) {
  const std::lock_guard lock{mutex_};
  writer_.append(kRecCellV2, encode_cell(stats));
  if (options_.fsync_every != 0 && ++cells_since_sync_ >= options_.fsync_every) {
    writer_.sync();
    cells_since_sync_ = 0;
  } else {
    writer_.flush();
  }
  completed_[stats.index] = stats;
}

bool CampaignStore::cell_complete(std::uint64_t cell_index) const {
  const std::lock_guard lock{mutex_};
  return completed_.contains(cell_index);
}

const campaign::CellStats* CampaignStore::completed_stats(
    std::uint64_t cell_index) const {
  const std::lock_guard lock{mutex_};
  const auto it = completed_.find(cell_index);
  return it == completed_.end() ? nullptr : &it->second;
}

std::size_t CampaignStore::completed_count() const {
  const std::lock_guard lock{mutex_};
  return completed_.size();
}

std::vector<std::uint64_t> CampaignStore::completed_cells() const {
  const std::lock_guard lock{mutex_};
  std::vector<std::uint64_t> out;
  out.reserve(completed_.size());
  for (const auto& [index, stats] : completed_) out.push_back(index);
  std::sort(out.begin(), out.end());
  return out;
}

void CampaignStore::sync() {
  const std::lock_guard lock{mutex_};
  writer_.sync();
  cells_since_sync_ = 0;
}

namespace {

/// load_sweep's body. When `stores` is given it receives the path and
/// manifest of every store file read, in read order, for merge_stores'
/// shard checks.
SweepData load_stores(
    const std::vector<std::string>& paths, const CellFilter& filter,
    std::vector<std::pair<std::string, StoreManifest>>* stores) {
  if (paths.empty()) {
    throw std::runtime_error("persist: load_sweep needs at least one store");
  }
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    if (!std::filesystem::is_directory(path)) {
      files.push_back(path);
      continue;
    }
    const std::vector<std::string> inside = list_store_files(path);
    if (inside.empty()) {
      throw std::runtime_error("persist: no *.store files in " + path);
    }
    files.insert(files.end(), inside.begin(), inside.end());
  }

  SweepData out;
  // Keyed views with the encoded bytes kept alongside, so a duplicate is
  // accepted only when it is the SAME bytes — the only duplicates a
  // deterministic sweep can legally produce.
  std::map<std::uint64_t,
           std::pair<campaign::CellStats, std::vector<std::uint8_t>>>
      cells;
  std::map<std::pair<std::uint64_t, std::uint32_t>,
           std::pair<TrialRecord, std::vector<std::uint8_t>>>
      trials;

  bool first = true;
  for (const std::string& path : files) {
    StoreContents contents = StoreReader{path}.read_matching(filter);
    if (stores != nullptr) stores->emplace_back(path, contents.manifest);
    if (first) {
      out.manifest = contents.manifest;
      first = false;
    } else {
      StoreManifest identity = contents.manifest;
      identity.shard_index = out.manifest.shard_index;
      identity.shard_count = out.manifest.shard_count;
      if (!(identity == out.manifest)) {
        throw std::runtime_error(
            "persist: store is from a different sweep (" +
            describe_manifest_mismatch(contents.manifest, out.manifest) +
            "): " + path);
      }
    }
    out.truncated_tail = out.truncated_tail || contents.truncated_tail;

    for (campaign::CellStats& cell : contents.cells) {
      if (cell.index >= contents.manifest.grid_cells) {
        throw std::runtime_error("persist: cell index beyond grid in " + path);
      }
      std::vector<std::uint8_t> bytes = encode_cell(cell);
      const std::uint64_t index = cell.index;
      const auto it = cells.find(index);
      if (it == cells.end()) {
        cells.emplace(index, std::pair{std::move(cell), std::move(bytes)});
      } else if (it->second.second == bytes) {
        ++out.duplicate_cells;
      } else {
        throw std::runtime_error(
            "persist: cell " + std::to_string(index) +
            " has conflicting copies (corrupt store or mixed sweeps): " +
            path);
      }
    }
    for (TrialRecord& trial : contents.trials) {
      std::vector<std::uint8_t> bytes = encode_trial(trial);
      const std::pair<std::uint64_t, std::uint32_t> key{trial.cell_index,
                                                        trial.trial};
      const auto it = trials.find(key);
      if (it == trials.end()) {
        trials.emplace(key, std::pair{std::move(trial), std::move(bytes)});
      } else if (it->second.second == bytes) {
        ++out.duplicate_trials;
      } else {
        throw std::runtime_error(
            "persist: trial (" + std::to_string(key.first) + ", " +
            std::to_string(key.second) +
            ") has conflicting copies (corrupt store or mixed sweeps): " +
            path);
      }
    }
  }

  out.cells.reserve(cells.size());
  for (auto& [index, entry] : cells) out.cells.push_back(std::move(entry.first));
  out.trials.reserve(trials.size());
  for (auto& [key, entry] : trials) {
    out.trials.push_back(std::move(entry.first));
  }
  return out;
}

/// The report of a sweep whose cells cover the whole grid, in grid order;
/// throws when any cell is missing.
campaign::SweepReport full_grid_report(SweepData data) {
  if (data.cells.size() != data.manifest.grid_cells) {
    throw std::runtime_error(
        "persist: stores cover " + std::to_string(data.cells.size()) +
        " of " + std::to_string(data.manifest.grid_cells) +
        " cells (incomplete shard, sweep still in flight, or missing "
        "store?)");
  }
  campaign::SweepReport report;
  report.cells = std::move(data.cells);
  return report;
}

}  // namespace

SweepData load_sweep(const std::vector<std::string>& paths,
                     const CellFilter& filter) {
  return load_stores(paths, filter, nullptr);
}

campaign::SweepReport merge_stores(const std::vector<std::string>& paths) {
  std::vector<std::pair<std::string, StoreManifest>> stores;
  SweepData data = load_stores(paths, CellFilter{}, &stores);
  std::map<std::uint32_t, const std::string*> shards_seen;
  for (const auto& [path, m] : stores) {
    if (m.shard_count != data.manifest.shard_count) {
      throw std::runtime_error(
          "persist: store is from a different sweep (" +
          describe_manifest_mismatch(m, data.manifest) + "): " + path);
    }
    const auto [it, inserted] = shards_seen.emplace(m.shard_index, &path);
    if (!inserted) {
      throw std::runtime_error("persist: duplicate shard " +
                               std::to_string(m.shard_index) + ": " + path +
                               " and " + *it->second);
    }
  }
  if (data.duplicate_cells != 0) {
    throw std::runtime_error(
        "persist: " + std::to_string(data.duplicate_cells) +
        " cell(s) reported by more than one store");
  }
  return full_grid_report(std::move(data));
}

StoreTailer::Counts StoreTailer::poll() {
  // Segment totals come from the levels manifest alone — no block
  // reads. A generation bump means a compaction replaced the segment
  // set and trimmed the log under us: rebase and rescan the (now tiny)
  // log from the top.
  try {
    const std::optional<LevelsManifest> levels = read_levels_manifest(path_);
    const std::uint64_t generation = levels ? levels->generation : 0;
    if (generation != generation_) {
      generation_ = generation;
      offset_ = 0;
      log_counts_ = {};
      segment_counts_ = {};
      if (levels.has_value()) {
        for (const SegmentRef& ref : levels->segments) {
          segment_counts_.trials += ref.trials;
          segment_counts_.cells += ref.cells;
        }
      }
    }
  } catch (const std::runtime_error&) {
    // Sidecar mid-replacement: keep the previous view, retry next poll.
  }

  if (record_file_usable(path_)) {
    try {
      RecordReader reader{path_, offset_};
      while (const auto rec = reader.next()) {
        switch (rec->type) {
          case kRecTrial: ++log_counts_.trials; break;
          case kRecCell:
          case kRecCellV2: ++log_counts_.cells; break;
          default: break;  // manifest / future record types
        }
      }
      offset_ = reader.valid_bytes();
    } catch (const std::runtime_error&) {
      // Mid-creation file (magic in flight) or transient I/O hiccup: a
      // progress view reports nothing new and retries next poll.
    }
  }
  return {segment_counts_.trials + log_counts_.trials,
          segment_counts_.cells + log_counts_.cells};
}

std::vector<std::string> list_store_files(const std::string& dir) {
  std::vector<std::string> stores;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".store") {
      stores.push_back(entry.path().string());
    }
  }
  std::sort(stores.begin(), stores.end());
  return stores;
}

campaign::SweepReport merge_worker_stores(const std::vector<std::string>& paths) {
  return full_grid_report(load_sweep(paths));
}

namespace {

/// In-flight unit of compaction: one live segment (existing or written
/// this pass) that may still be merged into a deeper level.
struct CompactUnit {
  std::string path;
  std::uint32_t level = 0;
  std::uint64_t sequence = 0;
  std::unique_ptr<SegmentReader> reader;
};

using CellMap = std::map<std::uint64_t, campaign::CellStats>;
using TrialMap = std::map<std::pair<std::uint64_t, std::uint32_t>, TrialRecord>;

std::vector<SegmentCell> to_segment_cells(CellMap cells, TrialMap trials) {
  std::vector<SegmentCell> out;
  out.reserve(cells.size());
  for (auto& [index, stats] : cells) {
    SegmentCell cell;
    cell.stats = std::move(stats);
    const auto lo = trials.lower_bound({index, 0});
    const auto hi = trials.lower_bound({index + 1, 0});
    for (auto it = lo; it != hi; ++it) {
      cell.trials.push_back(std::move(it->second));
    }
    out.push_back(std::move(cell));
  }
  return out;
}

/// Drains `inputs` (ascending sequence = last-wins) into key maps,
/// returning how many duplicate records the merge collapsed.
std::pair<std::size_t, std::size_t> drain_units(
    const std::vector<CompactUnit*>& inputs, CellMap& cells,
    TrialMap& trials) {
  std::size_t trial_records = 0;
  std::size_t cell_records = 0;
  for (const CompactUnit* unit : inputs) {
    for (campaign::CellStats& cell : unit->reader->cells()) {
      ++cell_records;
      const std::uint64_t index = cell.index;
      cells[index] = std::move(cell);
    }
    unit->reader->for_each_group([&](const SegmentReader::TrialGroup& group) {
      for (const TrialRecord& t : group.trials) {
        ++trial_records;
        trials[{t.cell_index, t.trial}] = t;
      }
    });
  }
  return {trial_records - trials.size(), cell_records - cells.size()};
}

}  // namespace

CompactionResult compact_store(const std::string& path,
                               const CompactOptions& options) {
  CompactionResult result;

  // ---- Load the current state: the log, then the segments its sidecar
  // names (each checked against the log's identity).
  LogReplay log = replay_log(path);
  SegmentTier tier = open_segment_tier(path, log.manifest);
  const StoreManifest& manifest = log.manifest;
  const std::optional<LevelsManifest>& levels = tier.levels;
  std::vector<CompactUnit> units;
  std::uint64_t next_sequence = 0;
  for (std::size_t i = 0; i < tier.segments.size(); ++i) {
    const SegmentRef& ref = levels->segments[i];
    CompactUnit unit;
    unit.path = segment_path(path, ref);
    unit.level = ref.level;
    unit.sequence = ref.sequence;
    unit.reader = std::move(tier.segments[i]);
    next_sequence = std::max(next_sequence, ref.sequence);
    units.push_back(std::move(unit));
  }
  result.bytes_before = file_size_or_zero(path) + tier.bytes;

  // ---- Drop superseded log records. A cell is "completed" if any tier
  // holds its aggregate; orphan trials (their cell never completed) are
  // re-run and re-streamed by a resume, so they drop here.
  std::set<std::uint64_t> completed;
  CellMap segment_cells;
  for (const CompactUnit& unit : units) {
    for (campaign::CellStats& cell : unit.reader->cells()) {
      const std::uint64_t index = cell.index;
      completed.insert(index);
      segment_cells[index] = std::move(cell);
    }
  }
  for (const auto& [index, cell] : log.cells) completed.insert(index);
  std::erase_if(log.trials, [&](const auto& entry) {
    return !completed.contains(entry.first.first);
  });
  result.trials_dropped = log.trial_records - log.trials.size();
  result.cells_dropped = log.cell_records - log.cells.size();

  const bool log_dirty =
      log.trial_records > 0 || log.cell_records > 0 || log.torn_tail;
  bool changed = false;

  // Writes `cells` as the next-sequence segment at `level` and adds it
  // to the live units.
  const auto write_unit = [&](std::vector<SegmentCell> cells,
                              std::uint32_t level) {
    CompactUnit unit;
    unit.level = level;
    unit.sequence = ++next_sequence;
    unit.path = (std::filesystem::path(path).parent_path() /
                 segment_file_name(path, unit.sequence))
                    .string();
    SegmentWriteOptions write_options;
    write_options.block_bytes = options.block_bytes;
    write_segment(unit.path, unit.level, unit.sequence, manifest,
                  std::move(cells), write_options);
    unit.reader = std::make_unique<SegmentReader>(unit.path);
    units.push_back(std::move(unit));
    ++result.segments_written;
    changed = true;
  };

  // ---- Flush the log's data into a fresh level-0 segment. Trials of a
  // cell completed in an older segment (crash-window duplicates) flush
  // under that segment's aggregate — bit-identical, deduped on merge.
  if (!log.cells.empty() || !log.trials.empty()) {
    CellMap flush_cells = std::move(log.cells);
    for (const auto& [key, t] : log.trials) {
      if (!flush_cells.contains(key.first)) {
        flush_cells[key.first] = segment_cells.at(key.first);
      }
    }
    write_unit(to_segment_cells(std::move(flush_cells), std::move(log.trials)),
               0);
  }

  // ---- Tier merge. Default (cap 0): everything into one sorted
  // segment. Tiered (cap > 0): any level over the cap merges, together
  // with the next level down, into a single deeper segment — young
  // levels stay small and churn, old levels are rewritten rarely.
  const auto merge_into = [&](std::vector<std::size_t> input_indices,
                              std::uint32_t out_level) {
    std::vector<CompactUnit*> inputs;
    inputs.reserve(input_indices.size());
    for (const std::size_t i : input_indices) inputs.push_back(&units[i]);
    std::sort(inputs.begin(), inputs.end(),
              [](const CompactUnit* a, const CompactUnit* b) {
                return a->sequence < b->sequence;
              });
    CellMap cells;
    TrialMap trials;
    const auto [dup_trials, dup_cells] = drain_units(inputs, cells, trials);
    result.trials_dropped += dup_trials;
    result.cells_dropped += dup_cells;

    std::sort(input_indices.begin(), input_indices.end(),
              std::greater<std::size_t>{});
    for (const std::size_t i : input_indices) {
      units.erase(units.begin() + static_cast<std::ptrdiff_t>(i));
    }
    write_unit(to_segment_cells(std::move(cells), std::move(trials)),
               out_level);
  };

  if (options.max_level_bytes == 0) {
    if (units.size() > 1) {
      std::vector<std::size_t> all(units.size());
      for (std::size_t i = 0; i < units.size(); ++i) all[i] = i;
      std::uint32_t deepest = 1;
      for (const CompactUnit& unit : units) {
        deepest = std::max(deepest, unit.level);
      }
      merge_into(std::move(all), deepest);
    }
  } else {
    for (bool merged = true; merged;) {
      merged = false;
      std::map<std::uint32_t, std::vector<std::size_t>> by_level;
      std::map<std::uint32_t, std::uint64_t> level_bytes;
      for (std::size_t i = 0; i < units.size(); ++i) {
        by_level[units[i].level].push_back(i);
        level_bytes[units[i].level] += units[i].reader->file_bytes();
      }
      for (const auto& [level, indices] : by_level) {
        if (level_bytes[level] <= options.max_level_bytes) continue;
        std::vector<std::size_t> inputs = indices;
        const auto next = by_level.find(level + 1);
        if (next != by_level.end()) {
          inputs.insert(inputs.end(), next->second.begin(),
                        next->second.end());
        }
        // A single oversized segment with nothing to merge against
        // would only be relabeled deeper forever — leave it be.
        if (inputs.size() < 2) continue;
        merge_into(std::move(inputs), level + 1);
        merged = true;
        break;  // unit indices are stale; recompute the level map
      }
    }
  }

  // ---- Publish. No-op when nothing changed and the log is already
  // clean: repeated compaction must be byte-stable.
  if (!changed && !log_dirty) {
    result.bytes_after = result.bytes_before;
    result.segments_live = units.size();
    result.generation = levels.has_value() ? levels->generation : 0;
    return result;
  }

  if (!units.empty() || levels.has_value()) {
    LevelsManifest out;
    out.generation = (levels.has_value() ? levels->generation : 0) + 1;
    // Round-trip the identity through its encoding so a v1 manifest
    // upgrades to the version the trimmed log will carry.
    out.identity = decode_store_manifest(encode_store_manifest(manifest));
    for (const CompactUnit& unit : units) {
      SegmentRef ref;
      ref.file = std::filesystem::path(unit.path).filename().string();
      ref.level = unit.level;
      ref.sequence = unit.sequence;
      ref.bytes = unit.reader->file_bytes();
      ref.trials = unit.reader->info().trial_count;
      ref.cells = unit.reader->info().cell_count;
      out.segments.push_back(std::move(ref));
    }
    std::sort(out.segments.begin(), out.segments.end(),
              [](const SegmentRef& a, const SegmentRef& b) {
                return a.sequence < b.sequence;
              });
    result.generation = out.generation;
    write_levels_manifest(path, out);
  }

  // Trim the log to its write-ahead essentials: the manifest record and
  // any unknown (future-format) records, preserved verbatim. Rename over
  // the original only once durable; fsync the directory so a crash
  // cannot resurrect the fat pre-compaction log.
  {
    const std::string tmp = path + ".compact";
    {
      RecordWriter writer{tmp, RecordWriter::Mode::kTruncate};
      writer.append(kRecManifest, encode_store_manifest(manifest));
      for (const Record& rec : log.unknown) {
        writer.append(rec.type, rec.payload);
      }
      writer.sync();
    }
    std::filesystem::rename(tmp, path);
    fsync_parent_dir(path);
  }

  // Obsolete segments last: the manifest no longer names them, so a
  // crash before this point merely leaves invisible debris (cleared by
  // the stale-file sweep below, next compaction).
  std::set<std::string> live;
  for (const CompactUnit& unit : units) {
    live.insert(std::filesystem::path(unit.path).filename().string());
  }
  {
    const std::filesystem::path store{path};
    const std::string base = store.filename().string();
    std::filesystem::path dir = store.parent_path();
    if (dir.empty()) dir = ".";
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > base.size() && name.starts_with(base) &&
          name.ends_with(".seg") && !live.contains(name)) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
  fsync_parent_dir(path);

  result.segments_live = units.size();
  result.bytes_after = file_size_or_zero(path) +
                       file_size_or_zero(levels_manifest_path(path));
  for (const CompactUnit& unit : units) {
    result.bytes_after += unit.reader->file_bytes();
  }
  return result;
}

}  // namespace msa::persist
