// Segment-tier tests: the sorted block-indexed format itself (round
// trip, index behavior, damage rejection), compaction identity at scale
// (flat vs segmented views byte-identical, tiered shapes included), the
// indexed read path actually touching only a cell's blocks, the
// machinery around it (tailer across a compaction, resume on a
// segmented store), and every tier opener refusing a segment from
// another sweep or out of sequence without touching the store.
#include "persist/segment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/axis.h"
#include "campaign/stats.h"
#include "obs/metrics.h"
#include "persist/campaign_store.h"
#include "persist/encoding.h"
#include "persist/manifest.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"

namespace msa::persist {
namespace {

std::string tmp_path(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_segment_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  remove_segment_files(path.string());
  return path.string();
}

/// Synthetic single-axis sweep identity: `cells` values of "delay_s".
StoreManifest synth_manifest(std::uint64_t cells,
                             std::uint32_t trials_per_cell) {
  StoreManifest m;
  m.grid_fingerprint = 0x5eedf00du;
  m.grid_cells = cells;
  m.trials_per_cell = trials_per_cell;
  m.trial_salt = 42;
  campaign::AxisSpec axis;
  axis.name = "delay_s";
  axis.kind = campaign::AxisKind::kDouble;
  for (std::uint64_t i = 0; i < cells; ++i) {
    axis.values.push_back(campaign::AxisValue::of_number(double(i)));
  }
  m.axes = {std::move(axis)};
  return m;
}

std::vector<campaign::AxisCoordinate> synth_coords(std::uint64_t index) {
  return {{"delay_s", campaign::AxisValue::of_number(double(index))}};
}

TrialRecord synth_trial(std::uint64_t cell, std::uint32_t trial) {
  TrialRecord t;
  t.cell_index = cell;
  t.trial = trial;
  t.denied = (cell + trial) % 3 == 0;
  t.model_identified = trial % 2 == 0;
  t.pixel_match = 0.25 + 0.5 * double(trial % 4) / 4.0;
  t.psnr = 20.0 + double(cell % 50);
  t.descriptor_pixel_match = 0.125 * double(trial % 8);
  if (t.denied) t.denial_reason = "firewall";
  return t;
}

campaign::CellStats synth_stats(std::uint64_t index,
                                std::uint32_t trials_per_cell) {
  campaign::CellStats s;
  s.index = index;
  s.coords = synth_coords(index);
  s.trials = trials_per_cell;
  for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
    const TrialRecord trial = synth_trial(index, t);
    if (trial.denied) {
      ++s.denials;
      if (s.first_denial_reason.empty()) s.first_denial_reason = "firewall";
    }
    if (trial.model_identified) ++s.model_identified;
    s.mean_pixel_match += trial.pixel_match;
    s.mean_psnr_db += trial.psnr;
    s.mean_descriptor_pixel_match += trial.descriptor_pixel_match;
  }
  s.mean_pixel_match /= trials_per_cell;
  s.mean_psnr_db /= trials_per_cell;
  s.mean_descriptor_pixel_match /= trials_per_cell;
  return s;
}

/// Streams `cells` x `trials_per_cell` synthetic records through a real
/// CampaignStore writer; `duplicate_every` > 0 re-appends every Nth
/// cell's trials (the bit-identical duplicates a resume legally leaves).
void write_synth_store(const std::string& path, std::uint64_t cells,
                       std::uint32_t trials_per_cell,
                       std::uint64_t duplicate_every = 0) {
  CampaignStore store{path, synth_manifest(cells, trials_per_cell),
                      CampaignStore::Mode::kCreate};
  for (std::uint64_t c = 0; c < cells; ++c) {
    for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
      store.append_trial(synth_trial(c, t));
    }
    if (duplicate_every != 0 && c % duplicate_every == 0) {
      for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
        store.append_trial(synth_trial(c, t));
      }
    }
    store.complete_cell(synth_stats(c, trials_per_cell));
  }
}

std::vector<SegmentCell> synth_segment_cells(std::uint64_t cells,
                                             std::uint32_t trials_per_cell) {
  std::vector<SegmentCell> out;
  for (std::uint64_t c = 0; c < cells; ++c) {
    SegmentCell cell;
    cell.stats = synth_stats(c, trials_per_cell);
    for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
      cell.trials.push_back(synth_trial(c, t));
    }
    out.push_back(std::move(cell));
  }
  return out;
}

/// A 20-cell store compacted twice under a generous level cap: two
/// live level-0 segments (cells 0-9, then 10-19 appended by a resume)
/// and a log trimmed to its manifest record.
std::string two_segment_store(const char* name) {
  const std::string path = tmp_path(name);
  const StoreManifest manifest = synth_manifest(20, 4);
  CompactOptions tiered;
  tiered.max_level_bytes = 64 * 1024 * 1024;
  for (std::uint64_t first = 0; first < 20; first += 10) {
    {
      CampaignStore store{path, manifest,
                          CampaignStore::Mode::kCreateOrResume};
      for (std::uint64_t c = first; c < first + 10; ++c) {
        for (std::uint32_t t = 0; t < 4; ++t) {
          store.append_trial(synth_trial(c, t));
        }
        store.complete_cell(synth_stats(c, 4));
      }
    }
    (void)compact_store(path, tiered);
  }
  return path;
}

/// Every file of the store at `path` (log, sidecar, segments) by name,
/// with its bytes — to prove a refused operation touched nothing.
std::map<std::string, std::string> store_files(const std::string& path) {
  const std::filesystem::path store{path};
  const std::string base = store.filename().string();
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(store.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(base)) continue;
    std::ifstream in{entry.path(), std::ios::binary};
    files[name] = {std::istreambuf_iterator<char>{in}, {}};
  }
  return files;
}

/// The std::runtime_error message `fn` throws, "" when it returns.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Frame types and footer magic as segment.cpp and manifest.cpp write
// them, so the hostile-input tests can frame payloads of their own.
constexpr std::uint8_t kSegHeaderType = 20;
constexpr std::uint8_t kSegTrialBlockType = 21;
constexpr std::uint8_t kSegCellBlockType = 22;
constexpr std::uint8_t kSegIndexType = 23;
constexpr std::uint8_t kSegFooterType = 24;
constexpr std::uint8_t kLevelsRecordType = 30;
constexpr std::uint64_t kSegFooterMagic = 0x314647455341534dULL;

/// A count no payload of a test file can back: reserving that many
/// elements would throw std::bad_alloc (or std::length_error).
constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 40;

std::string as_blob(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// One block of a raw segment: its payload and the record count the
/// index claims for it.
struct RawBlock {
  std::vector<std::uint8_t> payload;
  std::uint64_t count = 1;
};

/// Writes a segment laid out as write_segment lays one out (header,
/// trial blocks, cell blocks, index, footer) with every frame CRC-valid,
/// so only the decoders' own checks stand between a hostile payload and
/// the reader. The index lists each block under cell 0's key with its
/// claimed count, unless `index` replaces the index payload; the footer
/// totals match the claimed counts.
void write_raw_segment(const std::string& path,
                       const std::vector<RawBlock>& trial_blocks,
                       const std::vector<RawBlock>& cell_blocks,
                       const ByteWriter* index = nullptr) {
  RecordWriter writer{path, RecordWriter::Mode::kTruncate};
  std::uint64_t offset = kRecordMagic.size();
  const auto append = [&](std::uint8_t type,
                          std::span<const std::uint8_t> payload) {
    writer.append(type, payload);
    const std::uint64_t at = offset;
    offset += 8 + 1 + payload.size();
    return at;
  };
  ByteWriter header;
  header.u32(kSegmentFormatVersion);
  header.u32(0);  // level
  header.u64(1);  // sequence
  header.str(as_blob(encode_store_manifest(synth_manifest(1, 1))));
  append(kSegHeaderType, header.bytes());

  const std::vector<std::uint8_t> key = encode_cell_key(synth_coords(0));
  ByteWriter refs;
  std::uint64_t totals[2] = {0, 0};
  for (const int kind : {0, 1}) {
    const std::vector<RawBlock>& blocks = kind == 0 ? trial_blocks : cell_blocks;
    refs.varint(blocks.size());
    for (const RawBlock& block : blocks) {
      const std::uint64_t at = append(
          kind == 0 ? kSegTrialBlockType : kSegCellBlockType, block.payload);
      refs.str(as_blob(key));
      refs.varint(at);
      refs.varint(8 + 1 + block.payload.size());
      refs.varint(block.count);
      totals[kind] += block.count;
    }
  }
  const std::uint64_t index_offset =
      append(kSegIndexType, (index != nullptr ? *index : refs).bytes());

  ByteWriter footer;
  footer.u64(kSegFooterMagic);
  footer.u32(kSegmentFormatVersion);
  footer.u32(0);
  footer.u64(1);
  footer.u64(index_offset);
  footer.u64(totals[0]);
  footer.u64(totals[1]);
  append(kSegFooterType, footer.bytes());
  writer.flush();
}

/// The three stats renderings at once — "byte-identical" means all of
/// text, CSV and JSON.
std::string stats_bytes(const std::string& path,
                        const CellFilter& filter = {}) {
  const campaign::StatsReport report =
      campaign::analyze_sweep(load_sweep({path}, filter));
  return report.to_text() + "\x1e" + report.to_csv() + "\x1e" +
         report.to_json();
}

TEST(Segment, RoundTripPreservesEverything) {
  const std::string path = tmp_path("roundtrip.seg");
  const StoreManifest identity = synth_manifest(10, 5);
  const SegmentInfo written =
      write_segment(path, 2, 7, identity, synth_segment_cells(10, 5));
  EXPECT_EQ(written.trial_count, 50u);
  EXPECT_EQ(written.cell_count, 10u);

  const SegmentReader reader{path};
  EXPECT_EQ(reader.info().level, 2u);
  EXPECT_EQ(reader.info().sequence, 7u);
  EXPECT_EQ(reader.info().trial_count, 50u);
  EXPECT_EQ(reader.info().cell_count, 10u);
  EXPECT_EQ(reader.info().identity, identity);

  const std::vector<campaign::CellStats> cells = reader.cells();
  ASSERT_EQ(cells.size(), 10u);
  for (std::uint64_t c = 0; c < 10; ++c) {
    // Key order == numeric axis order for a single double axis.
    EXPECT_EQ(cells[c].index, c);
    EXPECT_EQ(cells[c].coords, synth_coords(c));
    const std::vector<TrialRecord> trials =
        reader.trials_for_key(encode_cell_key(synth_coords(c)));
    ASSERT_EQ(trials.size(), 5u);
    for (std::uint32_t t = 0; t < 5; ++t) {
      EXPECT_EQ(trials[t].trial, t);
      EXPECT_EQ(trials[t].cell_index, c);
      EXPECT_EQ(trials[t].psnr, synth_trial(c, t).psnr);
    }
  }
  // A key the segment does not hold reads back empty, not an error.
  EXPECT_TRUE(reader.trials_for_key(encode_cell_key(synth_coords(99))).empty());

  std::size_t streamed = 0;
  reader.for_each_group([&](const SegmentReader::TrialGroup& group) {
    streamed += group.trials.size();
  });
  EXPECT_EQ(streamed, 50u);
}

TEST(Segment, SingleCellQueryReadsOneBlockOfMany) {
  const std::string path = tmp_path("blocks.seg");
  SegmentWriteOptions options;
  options.block_bytes = 512;  // force many small blocks
  write_segment(path, 0, 1, synth_manifest(64, 8), synth_segment_cells(64, 8),
                options);

  const SegmentReader reader{path};
  ASSERT_GT(reader.trial_block_count(), 8u);

  obs::Counter& blocks = obs::counter("persist.segment_blocks_read");
  obs::Counter& bytes = obs::counter("persist.segment_bytes_read");
  const std::uint64_t blocks_before = blocks.value();
  const std::uint64_t bytes_before = bytes.value();
  const std::vector<TrialRecord> trials =
      reader.trials_for_key(encode_cell_key(synth_coords(37)));
  ASSERT_EQ(trials.size(), 8u);
  EXPECT_EQ(blocks.value() - blocks_before, 1u);
  // One block out of >8: well under a quarter of the file.
  EXPECT_LT(bytes.value() - bytes_before, reader.file_bytes() / 4);
}

TEST(Segment, TruncationAnywhereIsRejectedNotMisread) {
  const std::string path = tmp_path("torn.seg");
  SegmentWriteOptions options;
  options.block_bytes = 512;
  write_segment(path, 0, 1, synth_manifest(32, 6), synth_segment_cells(32, 6),
                options);
  const std::uint64_t size = std::filesystem::file_size(path);

  // Deterministic sample of truncation points across the whole file —
  // mid-block, mid-index, mid-footer — plus the exact footer boundary.
  std::mt19937 rng{0xc0ffee};
  std::vector<std::uint64_t> cuts{0, 1, size - 1, size - kSegmentFooterFrameBytes,
                                  size - kSegmentFooterFrameBytes - 1};
  std::uniform_int_distribution<std::uint64_t> dist{2, size - 2};
  for (int i = 0; i < 40; ++i) cuts.push_back(dist(rng));

  const std::string torn = tmp_path("torn_cut.seg");
  for (const std::uint64_t cut : cuts) {
    std::filesystem::copy_file(
        path, torn, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(torn, cut);
    try {
      const SegmentReader reader{torn};
      // The constructor only validates footer + index; force every
      // block read too. Any damage must throw — never partial data.
      (void)reader.cells();
      reader.for_each_group([](const SegmentReader::TrialGroup&) {});
      FAIL() << "truncation at " << cut << " of " << size
             << " was not detected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("segment"), std::string::npos)
          << "truncation at " << cut << " threw an unnamed error: "
          << e.what();
    }
  }
}

TEST(Segment, DamagedLevelsSidecarIsRejectedByName) {
  const std::string path = tmp_path("sidecar.store");
  write_synth_store(path, 16, 4);
  ASSERT_GT(compact_store(path).segments_live, 0u);

  const std::string sidecar = levels_manifest_path(path);
  const std::uint64_t size = std::filesystem::file_size(sidecar);
  std::filesystem::resize_file(sidecar, size / 2);
  try {
    (void)read_levels_manifest(path);
    FAIL() << "torn sidecar was not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("levels manifest"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)StoreReader{path}, std::runtime_error);
}

TEST(Segment, HostileCountsAreRejectedByNameNotAllocated) {
  // Every count a segment decoder reserves for comes from a CRC-valid
  // frame, so a CRC proves nothing about it. Each case claims 2^40
  // elements in a payload of a few bytes; each must throw its named
  // error — never std::bad_alloc, which error_of would not catch.
  const std::string path = tmp_path("hostile.seg");
  const std::vector<std::uint8_t> key = encode_cell_key(synth_coords(0));
  const auto bytes_of = [](const ByteWriter& w) {
    return std::vector<std::uint8_t>{w.bytes().begin(), w.bytes().end()};
  };
  const auto open_and_read = [&] {
    const SegmentReader reader{path};
    (void)reader.cells();
    for (std::size_t b = 0; b < reader.trial_block_count(); ++b) {
      (void)reader.read_trial_block(b);
    }
  };

  // Index: trial-block refs.
  ByteWriter index;
  index.varint(kHugeCount);
  write_raw_segment(path, {}, {}, &index);
  EXPECT_NE(error_of(open_and_read).find("persist: segment index block count"),
            std::string::npos);

  // Index: a ref's first key (decode_cell_key).
  ByteWriter hostile_key;
  hostile_key.varint(kHugeCount);
  index.clear();
  index.varint(1);
  index.str(as_blob(hostile_key.bytes()));
  write_raw_segment(path, {}, {}, &index);
  EXPECT_NE(error_of(open_and_read).find("persist: cell key coordinate count"),
            std::string::npos);

  // Index: a block claiming more records than it has bytes, for trials
  // and for cells (whose footer total sizes cells()'s reserve).
  ByteWriter group;
  group.varint(1);
  group.str(as_blob(key));
  group.varint(0);
  write_raw_segment(path, {{bytes_of(group), kHugeCount}}, {});
  EXPECT_NE(error_of(open_and_read).find("index entry count exceeds its block"),
            std::string::npos);
  ByteWriter one_cell;
  one_cell.varint(1);
  one_cell.str(as_blob(encode_cell(synth_stats(0, 1))));
  write_raw_segment(path, {}, {{bytes_of(one_cell), kHugeCount}});
  EXPECT_NE(error_of(open_and_read).find("index entry count exceeds its block"),
            std::string::npos);

  // Trial block: groups, then trials in one group.
  ByteWriter groups;
  groups.varint(kHugeCount);
  write_raw_segment(path, {{bytes_of(groups), 1}}, {});
  EXPECT_NE(
      error_of(open_and_read).find("persist: segment trial-block group count"),
      std::string::npos);
  ByteWriter trials;
  trials.varint(1);
  trials.str(as_blob(key));
  trials.varint(kHugeCount);
  write_raw_segment(path, {{bytes_of(trials), 1}}, {});
  EXPECT_NE(error_of(open_and_read).find("persist: segment trial count"),
            std::string::npos);

  // Cell block: one cell's coordinates (decode_cell_v2).
  ByteWriter coords;
  coords.varint(0);  // cell index
  coords.varint(kHugeCount);
  ByteWriter cell_block;
  cell_block.varint(1);
  cell_block.str(as_blob(coords.bytes()));
  write_raw_segment(path, {}, {{bytes_of(cell_block), 1}});
  EXPECT_NE(error_of(open_and_read).find("persist: cell coordinate count"),
            std::string::npos);
}

TEST(Segment, HostileLevelsSidecarCountIsRejectedByName) {
  const std::string path = tmp_path("hostile_levels.store");
  ByteWriter levels;
  levels.u32(kLevelsManifestFormatVersion);
  levels.u64(1);  // generation
  levels.str(as_blob(encode_store_manifest(synth_manifest(1, 1))));
  levels.varint(kHugeCount);
  {
    RecordWriter writer{levels_manifest_path(path),
                        RecordWriter::Mode::kTruncate};
    writer.append(kLevelsRecordType, levels.bytes());
  }
  EXPECT_NE(error_of([&] { (void)read_levels_manifest(path); })
                .find("persist: levels manifest segment count"),
            std::string::npos);
}

TEST(Segment, CompactionKeepsStatsByteIdenticalAtScale) {
  const std::string path = tmp_path("identity.store");
  write_synth_store(path, 300, 30, /*duplicate_every=*/2);
  const std::string flat = stats_bytes(path);
  const std::string flat_filtered =
      stats_bytes(path, {{CellFilter::parse_clause("delay_s=37,130,299")}});

  // Default compaction: one sorted segment; the duplicated trials drop,
  // so at this scale the store must actually shrink.
  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.trials_dropped, 150u * 30u);  // every other cell doubled
  EXPECT_EQ(result.segments_live, 1u);
  EXPECT_LT(result.bytes_after, result.bytes_before);

  EXPECT_EQ(stats_bytes(path), flat);
  EXPECT_EQ(stats_bytes(path, {{CellFilter::parse_clause("delay_s=37,130,299")}}),
            flat_filtered);

  // Re-compacting is byte-stable.
  const CompactionResult again = compact_store(path);
  EXPECT_EQ(again.trials_dropped, 0u);
  EXPECT_EQ(again.bytes_after, again.bytes_before);
  EXPECT_EQ(again.generation, result.generation);
  EXPECT_EQ(stats_bytes(path), flat);
}

TEST(Segment, TieredCompactionKeepsMultipleSegmentsAndIdentity) {
  const std::string path = tmp_path("tiered.store");
  const StoreManifest manifest = synth_manifest(120, 10);
  {
    CampaignStore store{path, manifest, CampaignStore::Mode::kCreate};
    for (std::uint64_t c = 0; c < 60; ++c) {
      for (std::uint32_t t = 0; t < 10; ++t) {
        store.append_trial(synth_trial(c, t));
      }
      store.complete_cell(synth_stats(c, 10));
    }
  }
  // Generous cap: the first flush stays its own level-0 segment.
  CompactOptions tiered;
  tiered.max_level_bytes = 64 * 1024 * 1024;
  EXPECT_EQ(compact_store(path, tiered).segments_live, 1u);

  {  // second half appends through a resume, then compacts again
    CampaignStore store{path, manifest, CampaignStore::Mode::kResume};
    EXPECT_EQ(store.completed_count(), 60u);  // seeded from the segment
    for (std::uint64_t c = 60; c < 120; ++c) {
      for (std::uint32_t t = 0; t < 10; ++t) {
        store.append_trial(synth_trial(c, t));
      }
      store.complete_cell(synth_stats(c, 10));
    }
  }
  const CompactionResult second = compact_store(path, tiered);
  EXPECT_EQ(second.segments_live, 2u);  // under the cap: no merge

  // Two live segments + trimmed log must read identically to the same
  // 120 cells written flat in one go.
  const std::string flat = tmp_path("tiered_flat.store");
  write_synth_store(flat, 120, 10);
  EXPECT_EQ(stats_bytes(path), stats_bytes(flat));
  const CellFilter filter{{CellFilter::parse_clause("delay_s=5,64,119")}};
  EXPECT_EQ(stats_bytes(path, filter), stats_bytes(flat, filter));

  // A small cap then merges everything down to one deeper segment.
  CompactOptions tight;
  tight.max_level_bytes = 1024;
  EXPECT_EQ(compact_store(path, tight).segments_live, 1u);
  EXPECT_EQ(stats_bytes(path), stats_bytes(flat));
}

TEST(Segment, CompactionRefusesSegmentOfAnotherSweep) {
  const std::string path = two_segment_store("foreign.store");
  const std::optional<LevelsManifest> levels = read_levels_manifest(path);
  ASSERT_TRUE(levels.has_value());
  ASSERT_EQ(levels->segments.size(), 2u);

  // Overwrite the first segment with one a sweep under another salt
  // wrote at the same level and sequence.
  const SegmentRef& ref = levels->segments.front();
  StoreManifest foreign = synth_manifest(20, 4);
  foreign.trial_salt = 2;
  (void)write_segment(segment_path(path, ref), ref.level, ref.sequence,
                      foreign, synth_segment_cells(10, 4));
  const std::map<std::string, std::string> before = store_files(path);
  ASSERT_EQ(before.size(), 4u);  // log, sidecar, two segments

  // Compaction must neither merge the foreign cells under this store's
  // identity nor rewrite anything on the way to refusing.
  const std::string error = error_of([&] { (void)compact_store(path); });
  EXPECT_NE(error.find("persist: segment " + ref.file), std::string::npos)
      << error;
  EXPECT_NE(error.find("different sweep"), std::string::npos) << error;
  EXPECT_NE(error.find("trial_salt 2 != 42"), std::string::npos) << error;
  EXPECT_TRUE(store_files(path) == before);

  // The same error StoreReader (stats/diff/merge) and resume give.
  EXPECT_EQ(error_of([&] { (void)StoreReader{path}; }), error);
  EXPECT_NE(error_of([&] {
              CampaignStore store{path, synth_manifest(20, 4),
                                  CampaignStore::Mode::kResume};
            }).find("different sweep"),
            std::string::npos);
  EXPECT_TRUE(store_files(path) == before);
}

TEST(Segment, CompactionAndResumeRefuseSegmentOutOfSequence) {
  const std::string path = two_segment_store("sequence.store");
  const std::optional<LevelsManifest> levels = read_levels_manifest(path);
  ASSERT_TRUE(levels.has_value());
  ASSERT_EQ(levels->segments.size(), 2u);

  // Right sweep, wrong file: the segment's own sequence disagrees with
  // the one its SegmentRef records, so last-wins order is unknowable.
  const SegmentRef& ref = levels->segments.front();
  (void)write_segment(segment_path(path, ref), ref.level, ref.sequence + 7,
                      synth_manifest(20, 4), synth_segment_cells(10, 4));
  const std::map<std::string, std::string> before = store_files(path);

  const std::string error = error_of([&] { (void)compact_store(path); });
  EXPECT_NE(error.find("persist: segment " + ref.file), std::string::npos)
      << error;
  EXPECT_NE(error.find("sequence"), std::string::npos) << error;
  EXPECT_TRUE(store_files(path) == before);

  EXPECT_EQ(error_of([&] {
              CampaignStore store{path, synth_manifest(20, 4),
                                  CampaignStore::Mode::kResume};
            }),
            error);
  EXPECT_EQ(error_of([&] { (void)StoreReader{path}; }), error);
  EXPECT_TRUE(store_files(path) == before);
}

TEST(Segment, IndexedCellReadTouchesFractionOfBigStore) {
  // The acceptance-scale store: 2000 cells x 50 trials = 100k trials.
  const std::string path = tmp_path("big.store");
  write_synth_store(path, 2000, 50);
  ASSERT_EQ(compact_store(path).segments_live, 1u);

  const StoreReader reader{path};
  ASSERT_GE(reader.store_bytes(), 1u << 21);  // sanity: multi-MB store

  obs::Counter& bytes = obs::counter("persist.segment_bytes_read");
  const std::uint64_t before = bytes.value();
  const auto cell = reader.read_cell(synth_coords(1234));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->stats.index, 1234u);
  ASSERT_EQ(cell->trials.size(), 50u);
  const std::uint64_t delta = bytes.value() - before;
  // One cell's blocks, not the store: under 5% of the file. (cells()
  // scans the aggregate blocks too, which dominate this delta — trial
  // data, the bulk of the store, stays untouched.)
  EXPECT_LT(delta * 20, reader.store_bytes());
}

TEST(Segment, TailerCountsSurviveCompaction) {
  const std::string path = tmp_path("tailer.store");
  write_synth_store(path, 50, 6);

  StoreTailer tailer{path};
  const StoreTailer::Counts before = tailer.poll();
  EXPECT_EQ(before.trials, 300u);
  EXPECT_EQ(before.cells, 50u);

  ASSERT_EQ(compact_store(path).segments_live, 1u);
  const StoreTailer::Counts after = tailer.poll();  // generation rebase
  EXPECT_EQ(after.trials, 300u);
  EXPECT_EQ(after.cells, 50u);

  // New appends on top of the trimmed log keep counting incrementally.
  {
    CampaignStore store{path, synth_manifest(50, 6),
                        CampaignStore::Mode::kResume};
    EXPECT_EQ(store.completed_count(), 50u);
  }
  const StoreTailer::Counts resumed = tailer.poll();
  EXPECT_EQ(resumed.trials, 300u);
  EXPECT_EQ(resumed.cells, 50u);
}

TEST(Segment, FreshCreateRefusesStaleSidecar) {
  const std::string path = tmp_path("stale.store");
  write_synth_store(path, 8, 2);
  ASSERT_EQ(compact_store(path).segments_live, 1u);
  std::filesystem::remove(path);  // log gone, sidecar + segment remain

  EXPECT_THROW((CampaignStore{path, synth_manifest(8, 2),
                              CampaignStore::Mode::kCreateOrResume}),
               std::runtime_error);
  remove_segment_files(path);  // the documented operator remedy
  CampaignStore store{path, synth_manifest(8, 2),
                      CampaignStore::Mode::kCreateOrResume};
  EXPECT_EQ(store.completed_count(), 0u);
}

}  // namespace
}  // namespace msa::persist
