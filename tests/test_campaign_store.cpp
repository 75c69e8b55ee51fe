// Campaign store tests: the durability/resume/sharding contract. The
// load-bearing properties are byte-identity — a resumed or sharded sweep
// must reproduce the uninterrupted single-process report exactly — and
// crash recovery: a torn tail costs only the incomplete cell.
#include "persist/campaign_store.h"

#include <gtest/gtest.h>

#include "persist/encoding.h"
#include "persist/manifest.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/grid.h"
#include "campaign/report.h"
#include "campaign/runner.h"

namespace msa::persist {
namespace {

using campaign::CampaignCell;
using campaign::CampaignOptions;
using campaign::CampaignRunner;
using campaign::CellStats;
using campaign::GridBuilder;
using campaign::SweepReport;

std::string tmp_store(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_store_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  // A previous run may have compacted this store: clear the levels
  // sidecar and segment files too, or a fresh create refuses the debris.
  persist::remove_segment_files(path.string());
  return path.string();
}

attack::ScenarioConfig small_base() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

/// 2 defenses x 2 delays x 2 scrubbers = 8 cells mixing successes,
/// scrub-defeated scrapes and denial-free baselines.
GridBuilder small_grid() {
  GridBuilder grid{small_base()};
  grid.defenses({"baseline", "zero_on_free"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0, 512.0 * 1024});
  return grid;
}

CampaignOptions make_options(unsigned threads, unsigned trials = 2) {
  CampaignOptions options;
  options.threads = threads;
  options.trials_per_cell = trials;
  return options;
}

/// Expects `statement` to throw a std::runtime_error whose message
/// contains `text`.
#define EXPECT_THAT_ERROR(statement, text)                         \
  try {                                                            \
    statement;                                                     \
    ADD_FAILURE() << #statement " did not throw";                  \
  } catch (const std::runtime_error& e) {                          \
    EXPECT_NE(std::string{e.what()}.find(text), std::string::npos) \
        << e.what();                                               \
  }

StoreManifest manifest_for(const GridBuilder& grid,
                           const CampaignOptions& options,
                           std::uint32_t shard_index = 0,
                           std::uint32_t shard_count = 1) {
  StoreManifest m;
  m.grid_fingerprint = grid.fingerprint();
  m.grid_cells = grid.full_size();
  m.trials_per_cell = options.trials_per_cell;
  m.trial_salt = options.trial_salt;
  m.shard_index = shard_index;
  m.shard_count = shard_count;
  m.axes = grid.axis_schema();
  return m;
}

TEST(GridShard, PartitionIsDisjointAndComplete) {
  GridBuilder full = small_grid();
  ASSERT_EQ(full.full_size(), 8u);

  std::vector<bool> covered(8, false);
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    GridBuilder shard = small_grid();
    shard.shard(s, 3);
    const auto cells = shard.build();
    EXPECT_EQ(cells.size(), shard.size());
    EXPECT_EQ(shard.full_size(), 8u);
    for (const CampaignCell& cell : cells) {
      EXPECT_EQ(cell.index % 3, s);
      ASSERT_LT(cell.index, covered.size());
      EXPECT_FALSE(covered[cell.index]) << "cell in two shards";
      covered[cell.index] = true;
    }
    total += cells.size();
  }
  EXPECT_EQ(total, 8u);

  // Shard cells are the same cells as the full build, global indices kept.
  const auto all = full.build();
  GridBuilder s1 = small_grid();
  const auto slice = s1.shard(1, 3).build();
  for (const CampaignCell& cell : slice) {
    EXPECT_EQ(cell.coords, all[cell.index].coords);
  }
}

TEST(GridShard, BadShardArgumentsThrow) {
  GridBuilder grid = small_grid();
  EXPECT_THROW(grid.shard(0, 0), std::invalid_argument);
  EXPECT_THROW(grid.shard(2, 2), std::invalid_argument);
}

TEST(GridShard, FingerprintIsShardInvariantButAxisSensitive) {
  GridBuilder a = small_grid();
  GridBuilder b = small_grid();
  b.shard(1, 4);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  GridBuilder c = small_grid();
  c.attack_delays_s({0.0, 6.0});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(CampaignStore, RoundTripMatchesInMemoryReport) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2);
  CampaignRunner runner{options};
  const SweepReport in_memory = runner.run(grid);

  const std::string path = tmp_store("roundtrip.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    const SweepReport stored = runner.run(grid, store);
    EXPECT_EQ(stored.to_csv(), in_memory.to_csv());
    EXPECT_EQ(store.completed_count(), 8u);
  }

  // Reload from disk alone: byte-identical CSV and JSON.
  const SweepReport reloaded = merge_stores({path});
  EXPECT_EQ(reloaded.to_csv(), in_memory.to_csv());
  EXPECT_EQ(reloaded.to_json(), in_memory.to_json());
}

TEST(CampaignStore, TrialStreamReconstructsCellAggregates) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(4, 3);
  const std::string path = tmp_store("trialstream.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }

  const StoreContents contents = StoreReader{path}.read_all();
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.cells.size(), 8u);
  ASSERT_EQ(contents.trials.size(), 8u * 3u);

  // Re-accumulate the per-trial stream; it must land on the exact stored
  // aggregates (same doubles bit for bit, since both sides ran the same
  // accumulation in trial order).
  for (const CellStats& cell : contents.cells) {
    CellStats rebuilt;
    rebuilt.index = cell.index;
    rebuilt.coords = cell.coords;
    for (const TrialRecord& t : contents.trials) {
      if (t.cell_index != cell.index) continue;
      attack::ScenarioResult result;
      result.denied = t.denied;
      result.denial_reason = t.denial_reason;
      result.model_identified_correctly = t.model_identified;
      result.pixel_match = t.pixel_match;
      result.psnr = t.psnr;
      result.descriptor_pixel_match = t.descriptor_pixel_match;
      rebuilt.accumulate(result);
    }
    rebuilt.finalize();
    EXPECT_EQ(rebuilt.trials, cell.trials);
    EXPECT_EQ(rebuilt.full_successes, cell.full_successes);
    EXPECT_EQ(rebuilt.model_identified, cell.model_identified);
    EXPECT_EQ(rebuilt.denials, cell.denials);
    EXPECT_EQ(rebuilt.first_denial_reason, cell.first_denial_reason);
    EXPECT_EQ(rebuilt.mean_pixel_match, cell.mean_pixel_match);
    EXPECT_EQ(rebuilt.mean_psnr_db, cell.mean_psnr_db);
    EXPECT_EQ(rebuilt.mean_descriptor_pixel_match,
              cell.mean_descriptor_pixel_match);
  }
}

TEST(CampaignStore, InterruptedSweepResumesByteIdentical) {
  // The acceptance criterion: interrupt after K cells, reopen, finish —
  // the final report matches an uninterrupted run at any thread count.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  CampaignRunner uninterrupted{make_options(4, 2)};
  const SweepReport golden = uninterrupted.run(grid);

  const std::string path = tmp_store("resume.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store, /*max_new_cells=*/3);  // "crash" here
    EXPECT_EQ(store.completed_count(), 3u);
  }

  std::size_t resumed_total = 0;
  CampaignOptions resume_options = make_options(4, 2);
  resume_options.on_cell_done = [&](std::size_t, std::size_t total) {
    resumed_total = total;
  };
  CampaignRunner resumer{resume_options};
  CampaignStore store{path, manifest_for(grid, resume_options),
                      CampaignStore::Mode::kResume};
  const SweepReport finished = resumer.run(grid, store);
  EXPECT_EQ(resumed_total, 5u);  // only the cells the "crash" lost
  EXPECT_EQ(store.completed_count(), 8u);
  EXPECT_EQ(finished.to_csv(), golden.to_csv());
  EXPECT_EQ(finished.to_json(), golden.to_json());
}

TEST(CampaignStore, TornTailRedoesOnlyIncompleteCell) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  CampaignRunner runner{options};
  const SweepReport golden = runner.run(grid);

  const std::string path = tmp_store("torntail.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  // Tear the tail: with one worker the file ends with the last cell's
  // completion record, so this reverts exactly one cell to "incomplete".
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  std::size_t redone = 0;
  CampaignOptions resume_options = make_options(2, 2);
  resume_options.on_cell_done = [&](std::size_t, std::size_t total) {
    redone = total;
  };
  CampaignRunner resumer{resume_options};
  CampaignStore store{path, manifest_for(grid, resume_options),
                      CampaignStore::Mode::kResume};
  EXPECT_EQ(store.completed_count(), 7u);
  const SweepReport finished = resumer.run(grid, store);
  EXPECT_EQ(redone, 1u);
  EXPECT_EQ(finished.to_csv(), golden.to_csv());
}

TEST(CampaignStore, ManifestMismatchAndModeErrors) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const std::string path = tmp_store("mismatch.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
  }

  // Same path, different trial count: a different sweep.
  EXPECT_THROW((CampaignStore{path, manifest_for(grid, make_options(1, 3)),
                              CampaignStore::Mode::kResume}),
               std::runtime_error);
  // Different grid axes: different fingerprint.
  GridBuilder other = small_grid();
  other.defenses({"baseline"});
  EXPECT_THROW((CampaignStore{path, manifest_for(other, options),
                              CampaignStore::Mode::kResume}),
               std::runtime_error);
  // kCreate refuses to clobber, kResume refuses to invent.
  EXPECT_THROW((CampaignStore{path, manifest_for(grid, options),
                              CampaignStore::Mode::kCreate}),
               std::runtime_error);
  EXPECT_THROW((CampaignStore{tmp_store("absent.store"),
                              manifest_for(grid, options),
                              CampaignStore::Mode::kResume}),
               std::runtime_error);

  // A runner whose trials/salt disagree with the store must refuse.
  CampaignStore store{path, manifest_for(grid, options),
                      CampaignStore::Mode::kResume};
  CampaignRunner wrong_trials{make_options(1, 3)};
  EXPECT_THROW((void)wrong_trials.run(grid, store), std::invalid_argument);
}

TEST(CampaignStore, ManifestDecoderBoundsCountsByPayload) {
  // A v2 manifest prefix up to the axis count; every field is valid.
  const auto prefix = [] {
    ByteWriter w;
    w.u32(kStoreFormatVersion);
    w.u64(1);   // grid_fingerprint
    w.u64(8);   // grid_cells
    w.u32(2);   // trials_per_cell
    w.u64(0);   // trial_salt
    w.u32(0);   // shard_index
    w.u32(1);   // shard_count
    return w;
  };
  const auto expect_named_error = [](const ByteWriter& w) {
    const std::vector<std::uint8_t> bytes{w.bytes().begin(), w.bytes().end()};
    EXPECT_THAT_ERROR((void)decode_store_manifest(bytes),
                      "persist: store manifest");
  };
  // 2^59 axes in a payload of a few bytes must not reach reserve().
  ByteWriter huge_axes = prefix();
  huge_axes.varint(std::uint64_t{1} << 59);
  expect_named_error(huge_axes);
  // Same for one axis claiming 2^59 values.
  ByteWriter huge_values = prefix();
  huge_values.varint(1);
  huge_values.str("delay_s");
  huge_values.u8(0);
  huge_values.varint(std::uint64_t{1} << 59);
  expect_named_error(huge_values);
}

TEST(CampaignStore, ManifestDecoderRejectsOutOfRangeShard) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const StoreManifest ok = manifest_for(grid, options, 1, 2);
  EXPECT_EQ(decode_store_manifest(encode_store_manifest(ok)), ok);
  for (const auto& [index, count] :
       {std::pair{7u, 0u}, std::pair{0u, 0u}, std::pair{2u, 2u}}) {
    const std::vector<std::uint8_t> bytes =
        encode_store_manifest(manifest_for(grid, options, index, count));
    EXPECT_THROW((void)decode_store_manifest(bytes), std::runtime_error)
        << index << "/" << count;
  }
}

TEST(CampaignStore, CreateOrResumeTakesBothBranches) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  const std::string path = tmp_store("createorresume.store");

  // File absent: behaves like kCreate.
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreateOrResume};
    (void)runner.run(grid, store, /*max_new_cells=*/2);
    EXPECT_EQ(store.completed_count(), 2u);
  }
  // File present: behaves like kResume — completed cells survive, and a
  // mismatched manifest is still rejected.
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreateOrResume};
    EXPECT_EQ(store.completed_count(), 2u);
  }
  EXPECT_THROW((CampaignStore{path, manifest_for(grid, make_options(1, 5)),
                              CampaignStore::Mode::kCreateOrResume}),
               std::runtime_error);
}

TEST(CampaignStore, WrongShardCellsRejected) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  const std::string path = tmp_store("wrongshard.store");
  CampaignStore store{path, manifest_for(grid, options, /*shard_index=*/1,
                                         /*shard_count=*/2),
                      CampaignStore::Mode::kCreate};
  GridBuilder shard0 = small_grid();
  shard0.shard(0, 2);
  CampaignRunner runner{options};
  EXPECT_THROW((void)runner.run(shard0, store), std::invalid_argument);
}

TEST(CampaignStore, ShardedSweepMergesToSingleProcessReport) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2, 2);
  CampaignRunner single{make_options(4, 2)};
  const SweepReport golden = single.run(grid);

  std::vector<std::string> paths;
  for (std::uint32_t s = 0; s < 2; ++s) {
    GridBuilder shard = small_grid();
    shard.shard(s, 2);
    const std::string path =
        tmp_store((std::string{"shard"} + std::to_string(s) + ".store").c_str());
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(shard, options, s, 2),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(shard, store);
    paths.push_back(path);
  }

  const SweepReport merged = merge_stores(paths);
  EXPECT_EQ(merged.to_csv(), golden.to_csv());
  EXPECT_EQ(merged.to_json(), golden.to_json());

  // Merge order must not matter: report is reassembled in grid order.
  const SweepReport reversed = merge_stores({paths[1], paths[0]});
  EXPECT_EQ(reversed.to_csv(), golden.to_csv());
}

TEST(CampaignStore, FsyncBatchingChangesNoBytes) {
  // fsync is a durability knob, not a format knob: a store written with
  // --fsync-every 1 is byte-identical to the default flush-only store.
  // One worker thread: the trial-record interleaving (not the report) is
  // schedule-dependent at higher thread counts.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const std::string plain = tmp_store("fsync_off.store");
  const std::string synced = tmp_store("fsync_on.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{plain, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  {
    CampaignRunner runner{options};
    StoreOptions durability;
    durability.fsync_every = 1;
    CampaignStore store{synced, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate, durability};
    (void)runner.run(grid, store);
    store.sync();  // the explicit final sync point is also byte-neutral
  }
  std::ifstream a{plain, std::ios::binary};
  std::ifstream b{synced, std::ios::binary};
  const std::string bytes_a{std::istreambuf_iterator<char>{a}, {}};
  const std::string bytes_b{std::istreambuf_iterator<char>{b}, {}};
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(CampaignStore, CompactionDropsSupersededRecords) {
  // A resume leaves duplicate trial records behind (the interrupted
  // cell's trials are re-streamed); compaction removes them without
  // changing what any reader sees.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  CampaignRunner runner{options};
  const SweepReport golden = runner.run(grid);

  const std::string path = tmp_store("compact.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  // Tear the final cell record: its trials stay behind as duplicates
  // once the resume re-runs the cell.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  {
    CampaignRunner resumer{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kResume};
    (void)resumer.run(grid, store);
  }
  const StoreContents before = StoreReader{path}.read_all();
  ASSERT_EQ(before.cells.size(), 8u);

  const CompactionResult result = compact_store(path);
  EXPECT_GT(result.trials_dropped, 0u);  // the re-streamed duplicates
  EXPECT_EQ(result.cells_dropped, 0u);   // every cell completed once
  // (bytes_after vs bytes_before is asserted at scale in test_segment:
  // on a tiny 8-cell store the segment index/footer can outweigh the
  // dropped duplicates.)
  EXPECT_EQ(result.segments_written, 1u);
  EXPECT_EQ(result.segments_live, 1u);
  EXPECT_EQ(StoreReader{path}.format_version(), kSegmentedStoreFormat);

  // Identical view after compaction, and still a valid mergeable store.
  const StoreContents after = StoreReader{path}.read_all();
  EXPECT_FALSE(after.truncated_tail);
  ASSERT_EQ(after.cells.size(), before.cells.size());
  ASSERT_EQ(after.trials.size(), before.trials.size());
  const SweepReport merged = merge_stores({path});
  EXPECT_EQ(merged.to_csv(), golden.to_csv());
  EXPECT_EQ(merged.to_json(), golden.to_json());

  // Re-compacting a compact store is a no-op.
  const CompactionResult again = compact_store(path);
  EXPECT_EQ(again.trials_dropped, 0u);
  EXPECT_EQ(again.bytes_after, again.bytes_before);
}

TEST(CampaignStore, CompactionDropsOrphanTrialsAndTornTail) {
  // A sweep killed mid-cell leaves that cell's already-streamed trials
  // behind with no completion record — orphans a future resume will
  // supersede. Compaction drops them (and the torn tail) now, and the
  // compacted store still resumes to the golden report.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const std::string path = tmp_store("compact_orphans.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  // Tear the last cell's completion record mid-frame: its trials become
  // orphans and the file ends in garbage.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  ASSERT_TRUE(StoreReader{path}.truncated_tail());

  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.cells_dropped, 0u);
  EXPECT_EQ(result.trials_dropped, 2u);  // the incomplete cell's 2 trials
  const StoreContents after = StoreReader{path}.read_all();
  EXPECT_FALSE(after.truncated_tail);
  EXPECT_EQ(after.cells.size(), 7u);
  EXPECT_EQ(after.trials.size(), 14u);  // only completed cells' trials

  // The compacted store still resumes to the full golden report.
  CampaignRunner resumer{options};
  const SweepReport golden = resumer.run(grid);
  CampaignStore store{path, manifest_for(grid, options),
                      CampaignStore::Mode::kResume};
  const SweepReport finished = resumer.run(grid, store);
  EXPECT_EQ(finished.to_csv(), golden.to_csv());
}

TEST(CampaignStore, ReadersRejectTwoDifferentManifestsInOneLog) {
  // Two different manifest records in one log are two sweeps spliced
  // together: no reader may keep one and serve the other's records.
  const CampaignOptions options = make_options(1, 2);
  const StoreManifest first = manifest_for(small_grid(), options);
  StoreManifest second = first;
  second.trial_salt = first.trial_salt + 1;

  const std::string repeated = tmp_store("repeated_manifest.store");
  const std::string spliced = tmp_store("spliced_manifests.store");
  for (const auto& [path, last] :
       {std::pair{repeated, first}, std::pair{spliced, second}}) {
    RecordWriter writer{path, RecordWriter::Mode::kTruncate};
    writer.append(kRecManifest, encode_store_manifest(first));
    writer.append(kRecManifest, encode_store_manifest(last));
  }

  // The same manifest twice is one sweep.
  EXPECT_EQ(StoreReader{repeated}.manifest(), first);
  EXPECT_EQ(load_sweep({repeated}).manifest, first);

  const char* const conflict = "conflicting manifest records";
  EXPECT_THAT_ERROR((void)StoreReader{spliced}, conflict);
  EXPECT_THAT_ERROR((void)load_sweep({spliced}), conflict);
  EXPECT_THAT_ERROR((void)load_sweep({spliced}), "trial_salt");
  EXPECT_THAT_ERROR((void)compact_store(spliced), conflict);
}

TEST(CampaignStore, LoadSweepDeduplicatesIdenticalCopiesOnly) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  // Two "workers" that both completed the same cells — the lease-race
  // shape. Deterministic trials make the copies bit-identical.
  const std::string a = tmp_store("dup_a.store");
  const std::string b = tmp_store("dup_b.store");
  for (const std::string& path : {a, b}) {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }

  const SweepData data = load_sweep({a, b});
  EXPECT_EQ(data.cells.size(), 8u);
  EXPECT_EQ(data.duplicate_cells, 8u);
  EXPECT_EQ(data.duplicate_trials, 8u);
  const SweepReport merged = merge_worker_stores({a, b});
  CampaignRunner runner{options};
  EXPECT_EQ(merged.to_csv(), runner.run(grid).to_csv());

  // Conflicting bytes for the same key are corruption, never tolerated.
  const std::string c = tmp_store("dup_c.store");
  {
    CampaignStore store{c, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    // Hand-write a conflicting completed cell for index 0.
    CellStats fake;
    fake.index = 0;
    fake.coords = {{"defense", campaign::AxisValue::of_string("baseline")},
                   {"model", campaign::AxisValue::of_string("resnet50_pt")}};
    fake.trials = 1;
    fake.mean_psnr_db = -1.0;  // cannot match the real cell
    store.complete_cell(fake);
  }
  EXPECT_THROW((void)load_sweep({a, c}), std::runtime_error);
  // Strict shard-merge still rejects duplicates outright.
  EXPECT_THROW((void)merge_stores({a, b}), std::runtime_error);
}

TEST(CampaignStore, MergeRejectsDuplicateAndIncompleteShards) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2, 1);
  GridBuilder shard0 = small_grid();
  shard0.shard(0, 2);
  const std::string path = tmp_store("lonely.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(shard0, options, 0, 2),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(shard0, store);
  }
  // Half the grid missing.
  EXPECT_THROW((void)merge_stores({path}), std::runtime_error);
  // Same shard twice.
  EXPECT_THROW((void)merge_stores({path, path}), std::runtime_error);
  EXPECT_THROW((void)merge_stores({}), std::runtime_error);
}

/// Writes the `shard_index`/`shard_count` slice of `grid` to a fresh store.
std::string write_shard(const char* name, const GridBuilder& grid,
                        const CampaignOptions& options,
                        std::uint32_t shard_index, std::uint32_t shard_count) {
  GridBuilder shard = grid;
  if (shard_count > 1) shard.shard(shard_index, shard_count);
  const std::string path = tmp_store(name);
  CampaignRunner runner{options};
  CampaignStore store{path, manifest_for(shard, options, shard_index,
                                         shard_count),
                      CampaignStore::Mode::kCreate};
  (void)runner.run(shard, store);
  return path;
}

/// Every byte load_sweep hands back, in order.
std::vector<std::vector<std::uint8_t>> sweep_bytes(const SweepData& data) {
  std::vector<std::vector<std::uint8_t>> out{
      encode_store_manifest(data.manifest)};
  for (const CellStats& cell : data.cells) out.push_back(encode_cell(cell));
  for (const TrialRecord& trial : data.trials) {
    out.push_back(encode_trial(trial));
  }
  return out;
}

TEST(CampaignStore, LoadSweepReadsADirectoryAsTheStoresInside) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2, 2);
  const auto dir =
      std::filesystem::temp_directory_path() / "msa_store_tests" / "load_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (std::uint32_t s = 0; s < 2; ++s) {
    const std::string name = "load_dir/s" + std::to_string(s) + ".store";
    (void)write_shard(name.c_str(), grid, options, s, 2);
  }
  const std::vector<std::string> files = list_store_files(dir.string());
  ASSERT_EQ(files.size(), 2u);
  const SweepData by_dir = load_sweep({dir.string()});
  EXPECT_EQ(sweep_bytes(by_dir), sweep_bytes(load_sweep(files)));
  EXPECT_EQ(by_dir.cells.size(), 8u);
  EXPECT_EQ(merge_stores({dir.string()}).to_csv(),
            merge_stores(files).to_csv());
}

TEST(CampaignStore, EmptyDirectoryIsANamedError) {
  const auto dir =
      std::filesystem::temp_directory_path() / "msa_store_tests" / "empty_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_THAT_ERROR((void)load_sweep({dir.string()}),
                    "persist: no *.store files in ");
}

TEST(CampaignStore, MergeRejectsShardsOfDifferentSplits) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2, 1);
  const std::string half = write_shard("split_0of2.store", grid, options, 0, 2);
  const std::string third =
      write_shard("split_1of3.store", grid, options, 1, 3);
  EXPECT_THAT_ERROR((void)merge_stores({half, third}), "shard_count 3 != 2");
  EXPECT_THAT_ERROR((void)merge_stores({third, half}), "shard_count 2 != 3");
}

TEST(CampaignStore, MergeRejectsStoresOfDifferentSweeps) {
  const CampaignOptions options = make_options(2, 1);
  GridBuilder other = small_grid();
  other.attack_delays_s({0.0, 6.0});
  const std::string a =
      write_shard("sweep_a_0of2.store", small_grid(), options, 0, 2);
  const std::string b = write_shard("sweep_b_1of2.store", other, options, 1, 2);
  EXPECT_THAT_ERROR((void)merge_stores({a, b}), "different sweep");
}

TEST(CellFilter, ValuesParseToCanonicalLabels) {
  using Labels = std::vector<std::string>;
  EXPECT_EQ(CellFilter::parse_clause("delay_s=5.0,5,0.50").labels,
            (Labels{"5", "5", "0.5"}));
  EXPECT_EQ(CellFilter::parse_clause("power_cycled=true,0,false,1").labels,
            (Labels{"1", "0", "0", "1"}));
  EXPECT_EQ(CellFilter::parse_clause("defense=baseline").labels,
            (Labels{"baseline"}));
  // Not range-checked: an older store may hold a value today's
  // validator refuses, and the filter must still be able to name it.
  EXPECT_EQ(CellFilter::parse_clause("delay_s=-1").labels, (Labels{"-1"}));

  const std::vector<campaign::AxisCoordinate> coords{
      {"delay_s", campaign::AxisValue::of_number(5.0)},
      {"power_cycled", campaign::AxisValue::of_bool(true)}};
  EXPECT_TRUE((CellFilter{{CellFilter::parse_clause("delay_s=5.0"),
                           CellFilter::parse_clause("power_cycled=true")}}
                   .matches(coords)));
}

TEST(CellFilter, LoadListsLabelsSoAMisspeltValueIsNamed) {
  // A misspelt value selects nothing. load_sweep collects what the
  // manifest lists for each filtered axis, so the CLI can name the value.
  const std::string path =
      write_shard("listed.store", small_grid(), make_options(2, 1), 0, 1);
  const CellFilter typo{{CellFilter::parse_clause("delay_s=0"),
                         CellFilter::parse_clause("defense=baseline,baselin")}};
  const SweepData data = load_sweep({path}, typo);
  EXPECT_EQ(data.filter_labels.at("delay_s"),
            (std::set<std::string>{"0", "5"}));
  EXPECT_EQ(typo.first_unlisted(data.filter_labels), "defense=baselin");
  EXPECT_EQ(CellFilter{{CellFilter::parse_clause("defense=zero_on_free")}}
                .first_unlisted(data.filter_labels),
            "");
  // An axis the sweep never varied lists nothing.
  EXPECT_EQ(CellFilter{{CellFilter::parse_clause("power_cycled=1")}}
                .first_unlisted(data.filter_labels),
            "power_cycled=1");
}

TEST(CellFilter, UnknownAxisAndMistypedValueThrow) {
  EXPECT_THROW((void)CellFilter::parse_clause("delya_s=5"),
               std::invalid_argument);
  EXPECT_THROW((void)CellFilter::parse_clause("delay_s=5s"),
               std::invalid_argument);
  EXPECT_THROW((void)CellFilter::parse_clause("delay_s=5,x"),
               std::invalid_argument);
  EXPECT_THROW((void)CellFilter::parse_clause("power_cycled=yes"),
               std::invalid_argument);
}

}  // namespace
}  // namespace msa::persist
