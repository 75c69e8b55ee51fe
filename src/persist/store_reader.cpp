#include "persist/store_reader.h"

#include <filesystem>
#include <set>
#include <stdexcept>

#include "obs/metrics.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"

namespace msa::persist {

namespace {

obs::Counter& log_bytes_read_counter() {
  static obs::Counter& c = obs::counter("persist.log_bytes_read");
  return c;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace

campaign::CellStats decode_log_cell(const Record& rec) {
  return rec.type == kRecCell ? decode_cell_v1(rec.payload)
                              : decode_cell_v2(rec.payload);
}

LogReplay replay_log(const std::string& path) {
  LogReplay out;
  bool saw_manifest = false;
  RecordReader reader{path};
  for (std::optional<Record> rec = reader.next(); rec.has_value();
       rec = reader.next()) {
    switch (rec->type) {
      case kRecManifest: {
        StoreManifest m = decode_store_manifest(rec->payload);
        if (saw_manifest && !(m == out.manifest)) {
          throw std::runtime_error(
              "persist: conflicting manifest records (" +
              describe_manifest_mismatch(m, out.manifest) + "): " + path);
        }
        out.manifest = std::move(m);
        saw_manifest = true;
        break;
      }
      case kRecTrial: {
        ++out.trial_records;
        TrialRecord t = decode_trial(rec->payload);
        const std::pair<std::uint64_t, std::uint32_t> key{t.cell_index,
                                                          t.trial};
        out.trials[key] = std::move(t);
        break;
      }
      case kRecCell:
      case kRecCellV2: {
        ++out.cell_records;
        campaign::CellStats c = decode_log_cell(*rec);
        const std::uint64_t index = c.index;
        out.cells[index] = std::move(c);
        break;
      }
      default:
        out.unknown.push_back(std::move(*rec));
        break;
    }
  }
  if (!saw_manifest) {
    throw std::runtime_error("persist: store has no manifest record: " + path);
  }
  out.valid_bytes = reader.valid_bytes();
  out.torn_tail = reader.truncated();
  return out;
}

SegmentTier open_segment_tier(const std::string& path,
                              const StoreManifest& identity) {
  SegmentTier tier;
  tier.levels = read_levels_manifest(path);
  if (!tier.levels.has_value()) return tier;
  if (!(tier.levels->identity == identity)) {
    throw std::runtime_error(
        "persist: levels manifest does not match store (" +
        describe_manifest_mismatch(tier.levels->identity, identity) +
        "): " + path);
  }
  tier.bytes = file_size_or_zero(levels_manifest_path(path));
  tier.segments.reserve(tier.levels->segments.size());
  for (const SegmentRef& ref : tier.levels->segments) {
    auto seg = std::make_unique<SegmentReader>(segment_path(path, ref));
    if (!(seg->info().identity == identity)) {
      throw std::runtime_error(
          "persist: segment " + ref.file + " is from a different sweep (" +
          describe_manifest_mismatch(seg->info().identity, identity) +
          "): " + path);
    }
    if (seg->info().sequence != ref.sequence) {
      throw std::runtime_error("persist: segment " + ref.file +
                               " carries sequence " +
                               std::to_string(seg->info().sequence) +
                               ", not its manifest sequence " +
                               std::to_string(ref.sequence) + ": " + path);
    }
    tier.bytes += seg->file_bytes();
    tier.segments.push_back(std::move(seg));
  }
  return tier;
}

StoreReader::StoreReader(const std::string& path)
    : log_{replay_log(path)}, tier_{open_segment_tier(path, log_.manifest)} {
  log_bytes_read_counter().add(log_.valid_bytes);
  store_bytes_ = file_size_or_zero(path) + tier_.bytes;
}

StoreReader::~StoreReader() = default;

std::vector<campaign::CellStats> StoreReader::cells() const {
  std::map<std::uint64_t, campaign::CellStats> merged;
  for (const std::unique_ptr<SegmentReader>& seg : tier_.segments) {
    for (campaign::CellStats& cell : seg->cells()) {
      const std::uint64_t index = cell.index;
      merged[index] = std::move(cell);
    }
  }
  for (const auto& [index, cell] : log_.cells) merged[index] = cell;
  std::vector<campaign::CellStats> out;
  out.reserve(merged.size());
  for (auto& [index, cell] : merged) out.push_back(std::move(cell));
  return out;
}

std::optional<StoreReader::CellData> StoreReader::read_cell(
    const std::vector<campaign::AxisCoordinate>& coords) const {
  const std::vector<std::uint8_t> key = encode_cell_key(coords);
  // Indexed lookup: one cell block per segment that can hold the key,
  // later segments winning, the in-memory log tail on top — never a
  // full cells() scan.
  std::optional<campaign::CellStats> stats;
  for (const std::unique_ptr<SegmentReader>& seg : tier_.segments) {
    if (std::optional<campaign::CellStats> cell = seg->cell_for_key(key)) {
      stats = std::move(cell);
    }
  }
  for (const auto& [index, cell] : log_.cells) {
    if (cell.coords == coords) stats = cell;
  }
  if (!stats.has_value()) return std::nullopt;

  std::map<std::uint32_t, TrialRecord> trials;
  for (const std::unique_ptr<SegmentReader>& seg : tier_.segments) {
    for (TrialRecord& t : seg->trials_for_key(key)) {
      const std::uint32_t trial = t.trial;
      trials[trial] = std::move(t);
    }
  }
  for (const auto& [log_key, t] : log_.trials) {
    if (log_key.first == stats->index) trials[log_key.second] = t;
  }

  CellData out;
  out.stats = std::move(*stats);
  out.trials.reserve(trials.size());
  for (auto& [trial, t] : trials) out.trials.push_back(std::move(t));
  return out;
}

StoreContents StoreReader::read_matching(const CellFilter& filter) const {
  StoreContents out;
  out.manifest = log_.manifest;
  out.format = format_version();
  out.truncated_tail = log_.torn_tail;

  std::vector<campaign::CellStats> matched;
  std::set<std::uint64_t> selected;
  for (campaign::CellStats& cell : cells()) {
    if (!filter.empty() && !filter.matches(cell.coords)) continue;
    selected.insert(cell.index);
    matched.push_back(std::move(cell));
  }

  std::map<std::pair<std::uint64_t, std::uint32_t>, TrialRecord> trials;
  if (filter.empty()) {
    // Full view: every segment group plus every log trial, orphans
    // included — byte-equivalent to replaying the original flat log.
    for (const std::unique_ptr<SegmentReader>& seg : tier_.segments) {
      seg->for_each_group([&](const SegmentReader::TrialGroup& group) {
        for (const TrialRecord& t : group.trials) {
          trials[{t.cell_index, t.trial}] = t;
        }
      });
    }
    for (const auto& [key, t] : log_.trials) trials[key] = t;
  } else {
    // Indexed path: per segment, the set of blocks that can hold any
    // selected cell — each block read once even when it serves several.
    std::set<std::vector<std::uint8_t>> keys;
    for (const campaign::CellStats& cell : matched) {
      keys.insert(encode_cell_key(cell.coords));
    }
    for (const std::unique_ptr<SegmentReader>& seg : tier_.segments) {
      std::set<std::size_t> blocks;
      for (const std::vector<std::uint8_t>& key : keys) {
        const std::optional<std::size_t> block = seg->trial_block_for(key);
        if (block.has_value()) blocks.insert(*block);
      }
      for (const std::size_t block : blocks) {
        for (SegmentReader::TrialGroup& group : seg->read_trial_block(block)) {
          if (!keys.contains(group.key)) continue;
          for (TrialRecord& t : group.trials) {
            const std::pair<std::uint64_t, std::uint32_t> key{t.cell_index,
                                                              t.trial};
            trials[key] = std::move(t);
          }
        }
      }
    }
    for (const auto& [key, t] : log_.trials) {
      if (selected.contains(key.first)) trials[key] = t;
    }
  }

  out.cells = std::move(matched);
  out.trials.reserve(trials.size());
  for (auto& [key, t] : trials) out.trials.push_back(std::move(t));
  return out;
}

}  // namespace msa::persist
