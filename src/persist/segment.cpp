#include "persist/segment.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "persist/encoding.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"

namespace msa::persist {

namespace {

// Segment record types — disjoint from the store-log types (1..4) so a
// segment frame can never be mistaken for a log record and vice versa.
constexpr std::uint8_t kSegHeader = 20;
constexpr std::uint8_t kSegTrialBlock = 21;
constexpr std::uint8_t kSegCellBlock = 22;
constexpr std::uint8_t kSegIndex = 23;
constexpr std::uint8_t kSegFooter = 24;

// "MSASEGF1" little-endian: the first 8 bytes of a valid footer payload.
constexpr std::uint64_t kSegmentFooterMagic = 0x314647455341534dULL;
constexpr std::size_t kFooterPayloadBytes = 48;

obs::Counter& segment_bytes_read_counter() {
  static obs::Counter& c = obs::counter("persist.segment_bytes_read");
  return c;
}
obs::Counter& segment_blocks_read_counter() {
  static obs::Counter& c = obs::counter("persist.segment_blocks_read");
  return c;
}

[[noreturn]] void seg_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("persist: segment " + path + ": " + what);
}

void put_blob(ByteWriter& w, std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) {
    w.varint(0);
    return;
  }
  w.str(std::string_view{reinterpret_cast<const char*>(bytes.data()),
                         bytes.size()});
}

std::vector<std::uint8_t> get_blob(ByteReader& r) {
  const std::string s = r.str();
  return {s.begin(), s.end()};
}

}  // namespace

SegmentInfo write_segment(const std::string& path, std::uint32_t level,
                          std::uint64_t sequence,
                          const StoreManifest& identity,
                          std::vector<SegmentCell> cells,
                          const SegmentWriteOptions& options) {
  std::sort(cells.begin(), cells.end(),
            [](const SegmentCell& a, const SegmentCell& b) {
              return cell_key_less(a.stats.coords, b.stats.coords);
            });
  for (SegmentCell& cell : cells) {
    std::sort(cell.trials.begin(), cell.trials.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.trial < b.trial;
              });
  }

  SegmentInfo info;
  info.level = level;
  info.sequence = sequence;
  info.identity = identity;
  info.cell_count = cells.size();

  struct PendingBlock {
    std::vector<std::uint8_t> first_key;
    std::vector<std::vector<std::uint8_t>> entries;  ///< encoded groups/cells
    std::uint64_t count = 0;                         ///< trials or cells
    std::size_t bytes = 0;
  };
  struct WrittenBlock {
    std::vector<std::uint8_t> first_key;
    std::uint64_t offset = 0;
    std::uint64_t frame_len = 0;
    std::uint64_t count = 0;
  };
  std::vector<WrittenBlock> trial_blocks;
  std::vector<WrittenBlock> cell_blocks;

  // kTruncate: segment file names embed the compaction sequence, so an
  // existing file at `path` can only be debris from an interrupted
  // compaction that never published its manifest — clobber it.
  RecordWriter writer{path, RecordWriter::Mode::kTruncate};
  std::uint64_t offset = kRecordMagic.size();
  const auto append = [&](std::uint8_t type,
                          std::span<const std::uint8_t> payload) {
    writer.append(type, payload);
    const std::uint64_t frame_len = 8 + 1 + payload.size();
    const std::uint64_t at = offset;
    offset += frame_len;
    return std::pair{at, frame_len};
  };

  {
    ByteWriter h;
    h.u32(kSegmentFormatVersion);
    h.u32(level);
    h.u64(sequence);
    put_blob(h, encode_store_manifest(identity));
    append(kSegHeader, h.bytes());
  }

  const auto flush_block = [&](std::uint8_t type, PendingBlock& block,
                               std::vector<WrittenBlock>& out) {
    if (block.entries.empty()) return;
    ByteWriter w;
    w.varint(block.entries.size());
    for (const std::vector<std::uint8_t>& entry : block.entries) {
      w.raw(entry);
    }
    const auto [at, frame_len] = append(type, w.bytes());
    out.push_back({std::move(block.first_key), at, frame_len, block.count});
    block = {};
  };

  // Trial blocks: whole-cell groups, a block closing at the first cell
  // that reaches the target size. Group entry:
  //   blob(cell key) varint(trial count) { blob(trial record) }...
  PendingBlock trial_block;
  for (const SegmentCell& cell : cells) {
    std::vector<std::uint8_t> key = encode_cell_key(cell.stats.coords);
    ByteWriter g;
    put_blob(g, key);
    g.varint(cell.trials.size());
    for (const TrialRecord& trial : cell.trials) {
      put_blob(g, encode_trial(trial));
    }
    if (trial_block.entries.empty()) trial_block.first_key = key;
    trial_block.bytes += g.size();
    trial_block.count += cell.trials.size();
    info.trial_count += cell.trials.size();
    trial_block.entries.emplace_back(g.bytes().begin(), g.bytes().end());
    if (trial_block.bytes >= options.block_bytes) {
      flush_block(kSegTrialBlock, trial_block, trial_blocks);
    }
  }
  flush_block(kSegTrialBlock, trial_block, trial_blocks);

  // Cell blocks: the aggregate records (coords embedded — the key is
  // derivable, so entries are plain v2 cell payloads).
  PendingBlock cell_block;
  for (const SegmentCell& cell : cells) {
    ByteWriter e;
    put_blob(e, encode_cell(cell.stats));
    if (cell_block.entries.empty()) {
      cell_block.first_key = encode_cell_key(cell.stats.coords);
    }
    cell_block.bytes += e.size();
    cell_block.count += 1;
    cell_block.entries.emplace_back(e.bytes().begin(), e.bytes().end());
    if (cell_block.bytes >= options.block_bytes) {
      flush_block(kSegCellBlock, cell_block, cell_blocks);
    }
  }
  flush_block(kSegCellBlock, cell_block, cell_blocks);

  const std::uint64_t index_offset = offset;
  {
    ByteWriter idx;
    const auto put_refs = [&](const std::vector<WrittenBlock>& blocks) {
      idx.varint(blocks.size());
      for (const WrittenBlock& b : blocks) {
        put_blob(idx, b.first_key);
        idx.varint(b.offset);
        idx.varint(b.frame_len);
        idx.varint(b.count);
      }
    };
    put_refs(trial_blocks);
    put_refs(cell_blocks);
    append(kSegIndex, idx.bytes());
  }

  {
    ByteWriter f;
    f.u64(kSegmentFooterMagic);
    f.u32(kSegmentFormatVersion);
    f.u32(level);
    f.u64(sequence);
    f.u64(index_offset);
    f.u64(info.trial_count);
    f.u64(info.cell_count);
    append(kSegFooter, f.bytes());
  }
  writer.sync();
  fsync_parent_dir(path);
  return info;
}

std::vector<std::uint8_t> SegmentReader::read_frame_at(
    std::uint64_t offset, std::uint8_t expect_type) const {
  std::optional<Record> rec;
  std::uint64_t frame_bytes = 0;
  try {
    RecordReader reader{path_, offset};
    rec = reader.next();
    frame_bytes = reader.valid_bytes() - offset;
  } catch (const std::runtime_error& e) {
    seg_error(path_, std::string{"unreadable frame: "} + e.what());
  }
  if (!rec.has_value()) {
    seg_error(path_, "truncated or corrupt frame at offset " +
                         std::to_string(offset));
  }
  if (rec->type != expect_type) {
    seg_error(path_, "unexpected record type " + std::to_string(rec->type) +
                         " at offset " + std::to_string(offset));
  }
  segment_bytes_read_counter().add(frame_bytes);
  return std::move(rec->payload);
}

SegmentReader::SegmentReader(std::string path) : path_{std::move(path)} {
  std::error_code ec;
  file_bytes_ = std::filesystem::file_size(path_, ec);
  if (ec) seg_error(path_, "cannot stat: " + ec.message());
  if (file_bytes_ < kRecordMagic.size() + kSegmentFooterFrameBytes) {
    seg_error(path_, "too small to hold a footer (truncated?)");
  }

  // Footer first: fixed-size frame at EOF. Truncating the file by even
  // one byte shifts this window onto unrelated bytes, so the CRC check
  // rejects every torn segment here.
  std::uint64_t index_offset = 0;
  {
    const std::vector<std::uint8_t> payload =
        read_frame_at(file_bytes_ - kSegmentFooterFrameBytes, kSegFooter);
    if (payload.size() != kFooterPayloadBytes) {
      seg_error(path_, "footer payload has wrong size");
    }
    ByteReader r{payload};
    if (r.u64() != kSegmentFooterMagic) seg_error(path_, "bad footer magic");
    info_.format = r.u32();
    if (info_.format != kSegmentFormatVersion) {
      seg_error(path_,
                "unsupported format version " + std::to_string(info_.format));
    }
    info_.level = r.u32();
    info_.sequence = r.u64();
    index_offset = r.u64();
    info_.trial_count = r.u64();
    info_.cell_count = r.u64();
    if (index_offset < kRecordMagic.size() ||
        index_offset >= file_bytes_ - kSegmentFooterFrameBytes) {
      seg_error(path_, "index offset out of bounds");
    }
  }

  {
    const std::vector<std::uint8_t> payload =
        read_frame_at(kRecordMagic.size(), kSegHeader);
    ByteReader r{payload};
    const std::uint32_t format = r.u32();
    const std::uint32_t level = r.u32();
    const std::uint64_t sequence = r.u64();
    if (format != info_.format || level != info_.level ||
        sequence != info_.sequence) {
      seg_error(path_, "header does not match footer");
    }
    const std::vector<std::uint8_t> manifest_bytes = get_blob(r);
    info_.identity = decode_store_manifest(manifest_bytes);
  }

  {
    const std::vector<std::uint8_t> payload =
        read_frame_at(index_offset, kSegIndex);
    ByteReader r{payload};
    const auto get_refs = [&](std::vector<BlockRef>& out,
                              std::uint64_t lo_offset) {
      const std::uint64_t n = r.count("segment index block");
      out.reserve(n);
      std::uint64_t prev_end = lo_offset;
      for (std::uint64_t i = 0; i < n; ++i) {
        BlockRef ref;
        ref.first_key = get_blob(r);
        ref.first = decode_cell_key(ref.first_key);
        ref.offset = r.varint();
        ref.frame_len = r.varint();
        ref.count = r.varint();
        // Subtract, never add: a hostile offset + frame_len could wrap.
        if (ref.offset < prev_end || ref.offset > index_offset ||
            ref.frame_len > index_offset - ref.offset) {
          seg_error(path_, "index entry out of bounds");
        }
        // Every record takes at least one byte of its block, which also
        // bounds the footer totals matched below (cells() reserves one).
        if (ref.count > ref.frame_len) {
          seg_error(path_, "index entry count exceeds its block");
        }
        prev_end = ref.offset + ref.frame_len;
        out.push_back(std::move(ref));
      }
      return prev_end;
    };
    const std::uint64_t trials_end = get_refs(trial_blocks_, 0);
    get_refs(cell_blocks_, trials_end);
    std::uint64_t trials = 0;
    for (const BlockRef& b : trial_blocks_) trials += b.count;
    std::uint64_t cells = 0;
    for (const BlockRef& b : cell_blocks_) cells += b.count;
    if (trials != info_.trial_count || cells != info_.cell_count) {
      seg_error(path_, "index totals do not match footer");
    }
  }
}

std::vector<campaign::CellStats> SegmentReader::cells() const {
  std::vector<campaign::CellStats> out;
  out.reserve(info_.cell_count);
  for (const BlockRef& block : cell_blocks_) {
    const std::vector<std::uint8_t> payload =
        read_frame_at(block.offset, kSegCellBlock);
    segment_blocks_read_counter().add();
    ByteReader r{payload};
    const std::uint64_t n = r.varint();
    if (n != block.count) seg_error(path_, "cell block count mismatch");
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::vector<std::uint8_t> bytes = get_blob(r);
      out.push_back(decode_cell_v2(bytes));
    }
  }
  return out;
}

std::optional<std::size_t> SegmentReader::trial_block_for(
    std::span<const std::uint8_t> key) const {
  if (trial_blocks_.empty()) return std::nullopt;
  const std::vector<campaign::AxisCoordinate> want = decode_cell_key(key);
  // Last block whose first key <= want: upper_bound on "want < first".
  const auto it = std::upper_bound(
      trial_blocks_.begin(), trial_blocks_.end(), want,
      [](const std::vector<campaign::AxisCoordinate>& w, const BlockRef& b) {
        return cell_key_less(w, b.first);
      });
  if (it == trial_blocks_.begin()) return std::nullopt;
  return static_cast<std::size_t>(std::distance(trial_blocks_.begin(), it)) -
         1;
}

std::vector<SegmentReader::TrialGroup> SegmentReader::read_trial_block(
    std::size_t block) const {
  const BlockRef& ref = trial_blocks_.at(block);
  const std::vector<std::uint8_t> payload =
      read_frame_at(ref.offset, kSegTrialBlock);
  segment_blocks_read_counter().add();
  ByteReader r{payload};
  const std::uint64_t groups = r.count("segment trial-block group");
  std::vector<TrialGroup> out;
  out.reserve(groups);
  std::uint64_t trials = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    TrialGroup group;
    group.key = get_blob(r);
    const std::uint64_t n = r.count("segment trial");
    group.trials.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::vector<std::uint8_t> bytes = get_blob(r);
      group.trials.push_back(decode_trial(bytes));
    }
    trials += n;
    out.push_back(std::move(group));
  }
  if (trials != ref.count) seg_error(path_, "trial block count mismatch");
  return out;
}

std::vector<TrialRecord> SegmentReader::trials_for_key(
    std::span<const std::uint8_t> key) const {
  const std::optional<std::size_t> block = trial_block_for(key);
  if (!block.has_value()) return {};
  for (TrialGroup& group : read_trial_block(*block)) {
    if (std::span<const std::uint8_t>{group.key}.size() == key.size() &&
        std::equal(group.key.begin(), group.key.end(), key.begin())) {
      return std::move(group.trials);
    }
  }
  return {};
}

std::optional<campaign::CellStats> SegmentReader::cell_for_key(
    std::span<const std::uint8_t> key) const {
  if (cell_blocks_.empty()) return std::nullopt;
  const std::vector<campaign::AxisCoordinate> want = decode_cell_key(key);
  const auto it = std::upper_bound(
      cell_blocks_.begin(), cell_blocks_.end(), want,
      [](const std::vector<campaign::AxisCoordinate>& w, const BlockRef& b) {
        return cell_key_less(w, b.first);
      });
  if (it == cell_blocks_.begin()) return std::nullopt;
  const BlockRef& block = *std::prev(it);
  const std::vector<std::uint8_t> payload =
      read_frame_at(block.offset, kSegCellBlock);
  segment_blocks_read_counter().add();
  ByteReader r{payload};
  const std::uint64_t n = r.varint();
  if (n != block.count) seg_error(path_, "cell block count mismatch");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::vector<std::uint8_t> bytes = get_blob(r);
    campaign::CellStats cell = decode_cell_v2(bytes);
    const std::vector<std::uint8_t> cell_key = encode_cell_key(cell.coords);
    if (cell_key.size() == key.size() &&
        std::equal(cell_key.begin(), cell_key.end(), key.begin())) {
      return cell;
    }
  }
  return std::nullopt;
}

void SegmentReader::for_each_group(
    const std::function<void(const TrialGroup&)>& fn) const {
  for (std::size_t i = 0; i < trial_blocks_.size(); ++i) {
    for (const TrialGroup& group : read_trial_block(i)) fn(group);
  }
}

}  // namespace msa::persist
