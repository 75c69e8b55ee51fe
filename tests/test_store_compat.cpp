// Store format-compat tests against a CHECKED-IN v1 store (written by
// the pre-axis-schema binary: v1 manifest, four named axis fields per
// cell record). The contract: v2 readers load it, synthesize the legacy
// four-axis schema, reproduce the pre-refactor stats output byte for
// byte, diff it against a freshly-run v2 store with every delta exactly
// zero, and compaction upgrades it in place to the current format.
//
// The fixture (tests/data/golden_v1_4axis.store and the three stats
// goldens next to it) was produced by the PR-5 binary with:
//   campaign_sweep --trials 2 --threads 2 --defenses baseline,zero_on_free
//                  --models resnet50_pt --delays 0,5 --scrubbers 0
//                  --store golden_v1_4axis.store
// over the default 96x96 base scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "campaign/compare.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/store_reader.h"

namespace msa::persist {
namespace {

std::string data_path(const char* name) {
  return std::string{MSA_TEST_DATA_DIR} + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>{in}, {}};
}

std::string tmp_copy_of_golden(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_compat_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  // A previous run may have compacted this copy: drop its levels
  // sidecar and segments, or the fresh flat copy would mismatch them.
  remove_segment_files(path.string());
  std::filesystem::copy_file(data_path("golden_v1_4axis.store"), path);
  return path.string();
}

/// The grid the golden store was swept over (the CLI defaults of the
/// binary that wrote it, narrowed to 4 cells).
campaign::GridBuilder golden_grid() {
  attack::ScenarioConfig base;
  base.image_width = 96;
  base.image_height = 96;
  campaign::GridBuilder grid{base};
  grid.defenses({"baseline", "zero_on_free"})
      .models({"resnet50_pt"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0});
  return grid;
}

TEST(StoreCompat, V1StoreLoadsWithSynthesizedLegacySchema) {
  const StoreContents contents =
      StoreReader{data_path("golden_v1_4axis.store")}.read_all();
  EXPECT_FALSE(contents.truncated_tail);
  EXPECT_EQ(contents.manifest.version, 1u);
  ASSERT_EQ(contents.manifest.axes.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(contents.manifest.axes[i].name,
              campaign::legacy_axis_names()[i]);
    // v1 manifests never carried value lists; the synthesized schema has
    // names and kinds only.
    EXPECT_TRUE(contents.manifest.axes[i].values.empty());
  }
  ASSERT_EQ(contents.cells.size(), 4u);
  for (const campaign::CellStats& cell : contents.cells) {
    ASSERT_EQ(cell.coords.size(), 4u);
    EXPECT_EQ(cell.coords[0].axis, "defense");
    EXPECT_EQ(cell.coords[1].axis, "model");
    EXPECT_EQ(cell.coords[1].value.str, "resnet50_pt");
    EXPECT_EQ(cell.coords[2].axis, "delay_s");
    EXPECT_EQ(cell.coords[3].axis, "scrubber_Bps");
    EXPECT_EQ(cell.coords[3].value.num, 0.0);
    EXPECT_EQ(cell.trials, 2u);
  }
}

TEST(StoreCompat, V1StatsOutputIsByteIdenticalToPreRefactorBinary) {
  const SweepData data = load_sweep({data_path("golden_v1_4axis.store")});
  const campaign::StatsReport report = campaign::analyze_sweep(data);
  EXPECT_EQ(report.to_text(), read_file(data_path("golden_v1_stats.txt")));
  EXPECT_EQ(report.to_csv(), read_file(data_path("golden_v1_stats.csv")));
  // The CLI terminates JSON output with one newline; to_json() does not.
  EXPECT_EQ(report.to_json() + "\n",
            read_file(data_path("golden_v1_stats.json")));
}

TEST(StoreCompat, V1DiffsAgainstFreshV2StoreWithZeroDeltas) {
  // Re-run the golden grid with today's binary into a v2 store, then
  // cross-version diff: every cell must pair on the legacy axes with
  // every delta exactly zero (trial reseeding is format-independent).
  const campaign::GridBuilder grid = golden_grid();
  campaign::CampaignOptions options;
  options.threads = 2;
  options.trials_per_cell = 2;

  StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = options.trials_per_cell;
  manifest.trial_salt = options.trial_salt;
  manifest.axes = grid.axis_schema();

  const auto dir = std::filesystem::temp_directory_path() / "msa_compat_tests";
  std::filesystem::create_directories(dir);
  const std::string v2_path = (dir / "fresh_v2.store").string();
  std::filesystem::remove(v2_path);
  {
    campaign::CampaignRunner runner{options};
    CampaignStore store{v2_path, manifest, CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  EXPECT_EQ(StoreReader{v2_path}.manifest().version, kStoreFormatVersion);

  const campaign::StatsReport v1 = campaign::analyze_sweep(
      load_sweep({data_path("golden_v1_4axis.store")}));
  const campaign::StatsReport v2 =
      campaign::analyze_sweep(load_sweep({v2_path}));
  const campaign::DiffReport diff = campaign::diff_sweeps(v1, v2);

  EXPECT_EQ(diff.shared_axes, campaign::legacy_axis_names());
  ASSERT_EQ(diff.cells.size(), 4u);
  EXPECT_TRUE(diff.only_in_a.empty());
  EXPECT_TRUE(diff.only_in_b.empty());
  EXPECT_EQ(diff.significant_cells, 0u);
  for (const campaign::CellDelta& d : diff.cells) {
    EXPECT_EQ(d.success_delta, 0.0);
    EXPECT_EQ(d.denial_delta, 0.0);
    EXPECT_EQ(d.p50_shift, 0.0);
    EXPECT_EQ(d.p90_shift, 0.0);
    EXPECT_EQ(d.p99_shift, 0.0);
  }
  for (const campaign::AxisDelta& d : diff.marginals) {
    EXPECT_EQ(d.success_delta, 0.0);
    EXPECT_EQ(d.mean_psnr_shift, 0.0);
  }
}

TEST(StoreCompat, V1StoreIsReadableButNotResumable) {
  // A v2 writer's manifest (version 2, axes pinned) can never match a v1
  // file's, so resuming a v1 store is refused rather than silently mixing
  // formats in one file. read/merge/compact remain the upgrade path.
  const std::string path = tmp_copy_of_golden("resume_refused.store");
  const campaign::GridBuilder grid = golden_grid();
  StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = 2;
  manifest.axes = grid.axis_schema();
  EXPECT_THROW(
      (CampaignStore{path, manifest, CampaignStore::Mode::kResume}),
      std::runtime_error);
}

TEST(StoreCompat, CompactionUpgradesV1ToCurrentFormat) {
  const std::string path = tmp_copy_of_golden("upgrade.store");
  const std::string stats_before = campaign::analyze_sweep(
      load_sweep({path})).to_csv();

  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.cells_dropped, 0u);
  EXPECT_EQ(result.trials_dropped, 0u);

  const StoreContents upgraded = StoreReader{path}.read_all();
  EXPECT_EQ(upgraded.manifest.version, kStoreFormatVersion);
  EXPECT_EQ(upgraded.format, kSegmentedStoreFormat);
  ASSERT_EQ(upgraded.cells.size(), 4u);
  // The rewritten store reads back to the same report bytes — including
  // the checked-in pre-refactor goldens, so a v1 store upgraded through
  // segmented compaction still renders the exact historical output.
  const campaign::StatsReport report =
      campaign::analyze_sweep(load_sweep({path}));
  EXPECT_EQ(report.to_csv(), stats_before);
  EXPECT_EQ(report.to_text(), read_file(data_path("golden_v1_stats.txt")));
  EXPECT_EQ(report.to_csv(), read_file(data_path("golden_v1_stats.csv")));

  // Compacting the already-segmented upgrade is byte-stable.
  const CompactionResult again = compact_store(path);
  EXPECT_EQ(again.bytes_after, again.bytes_before);
  EXPECT_EQ(campaign::analyze_sweep(load_sweep({path})).to_csv(),
            stats_before);
}

}  // namespace
}  // namespace msa::persist
