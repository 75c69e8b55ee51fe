// store_scale: a synthetic ~10^6-trial store (10^4 cells x 100 trials on
// the four legacy axes), where persist and the campaign stats/gate code
// do all the work and the simulator none. Set-up draws every cell's
// aggregate from the seed and writes a twin store in which a few planted
// cells become full successes; a cell's trial records are drawn again,
// from the cell's own stream, whenever they are written or checked. The
// measured phase writes the main store through
// CampaignStore::append_trial/complete_cell, compacts it, times point
// reads, ~1% range reads and full load+analyze passes, then diffs and
// gates it against the twin.
//
// Flush policy: StoreOptions{} (fsync_every = 0) — a flush per completed
// cell and fsyncs only inside compact_store, the campaign_sweep default.
#include <algorithm>
#include <filesystem>
#include <set>

#include "campaign/compare.h"
#include "campaign/gate.h"
#include "campaign/stats.h"
#include "common.h"
#include "obs/metrics.h"
#include "persist/store_reader.h"
#include "util/prng.h"

namespace perfbench {

namespace {

using namespace msa;
namespace fs = std::filesystem;

constexpr unsigned kTrialsPerCell = 100;
constexpr std::size_t kPlantedCells = 8;

campaign::GridBuilder scale_grid() {
  std::vector<double> delays;
  std::vector<double> scrubbers;
  for (int i = 0; i < 50; ++i) {
    delays.push_back(i);
    scrubbers.push_back(i * 64.0 * 1024);
  }
  attack::ScenarioConfig base;
  base.image_width = 96;
  base.image_height = 96;
  campaign::GridBuilder grid{base};
  grid.defenses({"baseline", "zero_on_free"})
      .models({"resnet50_pt", "squeezenet_pt"})
      .attack_delays_s(delays)
      .scrubber_rates(scrubbers);
  return grid;
}

/// The generated inputs: the grid, each cell's aggregate and the cells
/// planted in the twin. A cell's trial records are drawn again from the
/// cell's own stream of the seed whenever they are needed, so the
/// benchmark process never holds the 10^6 records and the peak resident
/// set is mostly the store code's.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<campaign::CampaignCell> cells;
  persist::StoreManifest manifest;
  std::vector<campaign::CellStats> stats;  ///< indexed by global cell index
  std::set<std::uint64_t> planted;
};

/// Outcome of one synthetic trial: denials only under zero_on_free, and a
/// per-cell full-success probability in [0.2, 0.7].
void draw_trial(util::Prng& prng, bool can_deny, double p_success,
                attack::ScenarioResult& r) {
  r.denied = can_deny && prng.chance(0.05);
  r.denial_reason = r.denied ? "debugger: ptrace access denied" : "";
  const bool success = !r.denied && prng.chance(p_success);
  r.model_identified_correctly = success || (!r.denied && prng.chance(0.5));
  r.pixel_match = success ? 1.0 : prng.uniform01() * 0.9;
  r.psnr = success ? 99.0 : 8.0 + prng.uniform01() * 30.0;
  r.descriptor_pixel_match = prng.chance(0.5) ? r.pixel_match : 0.0;
}

void planted_trial(attack::ScenarioResult& r) {
  r.denied = false;
  r.denial_reason.clear();
  r.model_identified_correctly = true;
  r.pixel_match = 1.0;
  r.psnr = 99.0;
  r.descriptor_pixel_match = 1.0;
}

/// Calls on_trial(t, result) for each trial of the cell at `index`, drawn
/// from the stream (seed, index): the same on every call.
template <typename OnTrial>
void for_each_trial(const Inputs& in, std::uint64_t index, OnTrial on_trial) {
  std::uint64_t stream = in.seed + (index << 32);
  util::Prng prng{util::splitmix64(stream)};
  const bool can_deny =
      in.cells[index].coord("defense")->label() == std::string{"zero_on_free"};
  const double p_success = 0.2 + 0.5 * prng.uniform01();
  attack::ScenarioResult r;
  for (unsigned t = 0; t < kTrialsPerCell; ++t) {
    draw_trial(prng, can_deny, p_success, r);
    on_trial(t, r);
  }
}

/// The main store's trial records of one cell.
std::vector<persist::TrialRecord> cell_trials(const Inputs& in,
                                              std::uint64_t index) {
  std::vector<persist::TrialRecord> records;
  records.reserve(kTrialsPerCell);
  for_each_trial(in, index, [&](unsigned t, const attack::ScenarioResult& r) {
    records.push_back(persist::TrialRecord::from_result(index, t, r));
  });
  return records;
}

Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  const campaign::GridBuilder grid = scale_grid();
  in.cells = grid.build();
  in.manifest.grid_fingerprint = grid.fingerprint();
  in.manifest.grid_cells = grid.full_size();
  in.manifest.trials_per_cell = kTrialsPerCell;
  in.manifest.trial_salt = seed;
  in.manifest.axes = grid.axis_schema();

  util::Prng prng{seed};
  while (in.planted.size() < kPlantedCells) {
    in.planted.insert(prng.below(in.cells.size()));
  }
  for (const campaign::CampaignCell& cell : in.cells) {
    campaign::CellStats stats;
    stats.index = cell.index;
    stats.coords = cell.coords;
    for_each_trial(in, cell.index,
                   [&](unsigned, const attack::ScenarioResult& r) {
                     stats.accumulate(r);
                   });
    stats.finalize();
    in.stats.push_back(std::move(stats));
  }
  return in;
}

void write_twin(const Inputs& in, const std::string& path) {
  fs::remove(path);
  persist::CampaignStore store{path, in.manifest,
                               persist::CampaignStore::Mode::kCreate};
  for (const campaign::CampaignCell& cell : in.cells) {
    const bool plant = in.planted.count(cell.index) != 0;
    campaign::CellStats twin;
    twin.index = cell.index;
    twin.coords = cell.coords;
    for_each_trial(in, cell.index, [&](unsigned t, attack::ScenarioResult r) {
      if (plant) planted_trial(r);
      store.append_trial(persist::TrialRecord::from_result(cell.index, t, r));
      twin.accumulate(r);
    });
    twin.finalize();
    store.complete_cell(twin);
  }
}

}  // namespace

campaign::StatsReport analyze_path(const std::string& path) {
  return campaign::analyze_sweep(persist::load_sweep({path}));
}

bool same_trials(std::span<const persist::TrialRecord> a,
                 std::span<const persist::TrialRecord> b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const persist::TrialRecord& x, const persist::TrialRecord& y) {
        return x.cell_index == y.cell_index && x.trial == y.trial &&
               x.denied == y.denied && x.model_identified == y.model_identified &&
               same_bits(x.pixel_match, y.pixel_match) &&
               same_bits(x.psnr, y.psnr) &&
               same_bits(x.descriptor_pixel_match, y.descriptor_pixel_match) &&
               x.denial_reason == y.denial_reason;
      });
}

persist::CellFilter range_filter(const std::vector<campaign::CellStats>& cells,
                                 double max_fraction) {
  persist::CellFilter filter;
  const campaign::CellStats& pivot = cells[cells.size() / 2];
  for (const campaign::AxisCoordinate& coord : pivot.coords) {
    const auto matching = static_cast<double>(std::count_if(
        cells.begin(), cells.end(),
        [&](const campaign::CellStats& c) { return filter.matches(c.coords); }));
    if (matching <= max_fraction * static_cast<double>(cells.size())) break;
    filter.clauses.push_back({coord.axis, {coord.value.label()}});
  }
  return filter;
}

ReadBench::ReadBench(std::vector<campaign::CellStats> cells,
                     WrittenTrials written, persist::CellFilter filter)
    : cells_{std::move(cells)},
      written_{std::move(written)},
      filter_{std::move(filter)} {
  filter_cells_ = static_cast<std::size_t>(std::count_if(
      cells_.begin(), cells_.end(),
      [&](const campaign::CellStats& c) { return filter_.matches(c.coords); }));
}

campaign::StatsReport ReadBench::run(const std::string& path,
                                     std::size_t points, std::size_t ranges,
                                     std::size_t full_passes) {
  const auto bytes_read = [] {
    return counter_value("persist.segment_bytes_read") +
           counter_value("persist.log_bytes_read");
  };
  const std::uint64_t blocks_before =
      counter_value("persist.segment_blocks_read");
  const std::uint64_t bytes_before = bytes_read();
  for (std::size_t i = 0; i < points; ++i) {
    // A prime stride visits the whole grid early.
    const campaign::CellStats& want =
        cells_[(next_point_++ * 7919) % cells_.size()];
    const Clock::time_point t0 = Clock::now();
    const persist::StoreReader reader{path};
    const std::optional<persist::StoreReader::CellData> got =
        reader.read_cell(want.coords);
    point_ms_.push_back(ms_between(t0, Clock::now()));
    points_ok_ = points_ok_ && got.has_value() &&
                 got->stats.index == want.index &&
                 got->stats.trials == want.trials &&
                 same_trials(got->trials, written_(want.index));
  }
  point_bytes_ += bytes_read() - bytes_before;

  for (std::size_t i = 0; i < ranges; ++i) {
    const Clock::time_point t0 = Clock::now();
    const persist::StoreContents got =
        persist::StoreReader{path}.read_matching(filter_);
    range_ms_.push_back(ms_between(t0, Clock::now()));
    ranges_ok_ = ranges_ok_ && got.cells.size() == filter_cells_ &&
                 got.trials.size() == filter_cells_ * cells_.front().trials;
  }
  blocks_ += counter_value("persist.segment_blocks_read") - blocks_before;

  campaign::StatsReport first;
  for (std::size_t i = 0; i < full_passes; ++i) {
    const Clock::time_point t0 = Clock::now();
    const persist::SweepData data = persist::load_sweep({path});
    const Clock::time_point t1 = Clock::now();
    campaign::StatsReport stats = campaign::analyze_sweep(data);
    load_ms_.push_back(ms_between(t0, t1));
    analyze_ms_.push_back(ms_between(t1, Clock::now()));
    if (i == 0) first = std::move(stats);
  }
  return first;
}

double ReadBench::timed_s() const {
  double ms = 0.0;
  for (const auto* v : {&point_ms_, &range_ms_, &load_ms_, &analyze_ms_}) {
    for (const double x : *v) ms += x;
  }
  return ms / 1e3;
}

void ReadBench::report(Result& result) const {
  result.attempted += point_ms_.size() + range_ms_.size() + load_ms_.size();
  result.check("point_reads_return_written_trials", points_ok_);
  result.check("range_reads_return_matching_cells", ranges_ok_);
  std::vector<double> stats_s;
  for (std::size_t i = 0; i < load_ms_.size(); ++i) {
    stats_s.push_back((load_ms_[i] + analyze_ms_[i]) / 1e3);
  }
  result.set("point_read_ms_p50", median(point_ms_), "ms");
  result.set("point_read_ms_p99", windowed_tail(point_ms_).value, "ms");
  result.set("range_read_ms_p50", median(range_ms_), "ms");
  result.set("stats_s", median(stats_s), "s");
  result.set("persist.bytes_read_per_point_read",
             static_cast<double>(point_bytes_) /
                 static_cast<double>(point_ms_.size()),
             "bytes");
  result.set("persist.segment_blocks_read_per_query",
             static_cast<double>(blocks_) /
                 static_cast<double>(point_ms_.size() + range_ms_.size()),
             "count");
  result.set("persist.load_ms", median(load_ms_), "ms");
  result.set("campaign.analyze_ms", median(analyze_ms_), "ms");
  result.info["range_filter_cells"] = std::to_string(filter_cells_);
  result.info["point_reads"] = std::to_string(point_ms_.size());
}

persist::CompactionResult CompactionBench::run(const std::string& path) {
  const msa::obs::Histogram& fsync_ns = obs::histogram("persist.fsync_ns");
  const std::uint64_t fsync_before = fsync_ns.sum();
  const Clock::time_point t0 = Clock::now();
  const persist::CompactionResult c = persist::compact_store(path);
  const double wall = seconds_since(t0);
  const double fsync_s = static_cast<double>(fsync_ns.sum() - fsync_before) / 1e9;
  wall_s_ += wall;
  compute_s_.push_back(wall - fsync_s);
  fsync_ms_.push_back(fsync_s * 1e3);
  rewritten_ += static_cast<double>(c.bytes_after);
  space_amp_ += static_cast<double>(c.bytes_after) /
                static_cast<double>(c.bytes_before);
  return c;
}

void CompactionBench::report(Result& result) const {
  const auto n = static_cast<double>(compute_s_.size());
  result.set("compact_s", median(compute_s_), "s");
  result.set("persist.compact_fsync_ms", median(fsync_ms_), "ms");
  result.set("persist.compact_bytes_rewritten", rewritten_ / n, "bytes");
  result.set("persist.space_amp", space_amp_ / n, "ratio");
}

void run_store_scale(const Options& options, Result& result) {
  const std::string dir = options.out_dir + "/store_scale";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string twin_path = dir + "/twin.store";

  // ---- set-up, three times: generate inputs, build the twin ---------------
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    in = generate(options.seed);
    write_twin(in, twin_path);
    setup_s.push_back(seconds_since(t0));
  }
  result.set("setup_s", median(setup_s), "s");
  result.info["setup_rss_mb"] = std::to_string(proc_status_mb("VmRSS"));

  // ---- measured: repetitions of write, compact, read, analyze, diff+gate --
  const Clock::time_point measured = Clock::now();
  // Output checks and trial generation, excluded from trace.coverage.
  double harness_s = 0.0;
  Clock::time_point t0 = Clock::now();
  const campaign::StatsReport twin = analyze_path(twin_path);
  harness_s += seconds_since(t0);
  const std::uint64_t gate_seed = campaign::gate_seed(
      in.manifest.grid_fingerprint, in.manifest.grid_fingerprint);
  ReadBench reads{in.stats,
                  [&](std::uint64_t cell) { return cell_trials(in, cell); },
                  range_filter(in.stats, 0.01)};
  const double trials =
      static_cast<double>(in.cells.size()) * kTrialsPerCell;
  std::vector<double> append_rate, lifecycle_rate, complete_ms,
      diff_ms, gate_ms, diff_gate_s;
  CompactionBench compactions;
  double timed_s = 0.0;  // sum of the timed calls outside `reads`
  double bytes_written = 0.0, fsyncs = 0.0;
  bool stats_identical = true, planted_only = true, self_silent = true;
  std::size_t reps = 0;
  for (; reps < 2 || seconds_since(measured) - harness_s < options.seconds;
       ++reps) {
    const std::string rep_dir = dir + "/rep" + std::to_string(reps);
    fs::create_directories(rep_dir);
    const std::string path = rep_dir + "/main.store";
    const std::uint64_t bytes_before = counter_value("persist.bytes_written");
    const std::uint64_t fsyncs_before = counter_value("persist.fsyncs");

    double append_s = 0.0;
    {
      persist::CampaignStore store{path, in.manifest,
                                   persist::CampaignStore::Mode::kCreate};
      for (std::size_t c = 0; c < in.cells.size(); ++c) {
        const Clock::time_point g0 = Clock::now();
        const std::vector<persist::TrialRecord> records = cell_trials(in, c);
        const Clock::time_point a0 = Clock::now();
        harness_s += ms_between(g0, a0) / 1e3;
        for (const persist::TrialRecord& record : records) {
          store.append_trial(record);
        }
        const Clock::time_point a1 = Clock::now();
        store.complete_cell(in.stats[c]);
        const Clock::time_point a2 = Clock::now();
        complete_ms.push_back(ms_between(a1, a2));
        append_s += ms_between(a0, a2) / 1e3;
      }
    }
    append_rate.push_back(trials / append_s);
    bytes_written += static_cast<double>(
        counter_value("persist.bytes_written") - bytes_before);

    std::string flat_stats;
    if (reps == 0) {
      t0 = Clock::now();
      flat_stats = analyze_path(path).to_csv();
      harness_s += seconds_since(t0);
    }
    (void)compactions.run(path);
    fsyncs += static_cast<double>(counter_value("persist.fsyncs") - fsyncs_before);

    const campaign::StatsReport stats = reads.run(path, 500, 20, 1);
    const double full_pass_s = reads.last_full_pass_s();
    if (reps == 0) stats_identical = stats.to_csv() == flat_stats;

    t0 = Clock::now();
    const campaign::DiffReport diff = campaign::diff_sweeps(stats, twin);
    const Clock::time_point t1 = Clock::now();
    const campaign::GateResult gate =
        campaign::evaluate_gate(diff, campaign::GateSpec{}, gate_seed);
    const Clock::time_point t2 = Clock::now();
    diff_ms.push_back(ms_between(t0, t1));
    gate_ms.push_back(ms_between(t1, t2));
    diff_gate_s.push_back(ms_between(t0, t2) / 1e3);
    timed_s += append_s + diff_gate_s.back();
    lifecycle_rate.push_back(trials /
                             (append_s + compactions.last_s() + full_pass_s));

    std::set<std::uint64_t> tripped;
    for (const campaign::GateCellVerdict& v : gate.tripped_cells) {
      for (const campaign::CellDelta& d : diff.cells) {
        if (!(d.key < v.key) && !(v.key < d.key)) tripped.insert(d.index_a);
      }
    }
    planted_only = planted_only && tripped == in.planted;
    if (reps == 0) {
      t0 = Clock::now();
      self_silent = !campaign::evaluate_gate(campaign::diff_sweeps(stats, stats),
                                             campaign::GateSpec{}, gate_seed)
                         .tripped();
      harness_s += seconds_since(t0);
    }
    fs::remove_all(rep_dir);
  }
  const double measured_s = seconds_since(measured) - harness_s;
  result.attempted += static_cast<std::uint64_t>(trials) * reps;
  reads.report(result);
  result.check("stats_equal_after_compaction", stats_identical);
  result.check("gate_trips_on_planted_cells", planted_only);
  result.check("self_diff_gate_silent", self_silent);

  // ---- end-to-end ------------------------------------------------------------------
  result.set("append_trials_per_s", median(append_rate), "1/s");
  compactions.report(result);
  result.set("diff_gate_s", median(diff_gate_s), "s");
  // A "trial" here is a stored trial record carried through append,
  // compaction and one full load+analyze: trials_per_s is that rate and
  // trial_ms_p50 the same measurement as a time per trial.
  result.set("trials_per_s", median(lifecycle_rate), "1/s");
  std::vector<double> lifecycle_ms;
  for (const double rate : lifecycle_rate) lifecycle_ms.push_back(1e3 / rate);
  result.set("trial_ms_p50", median(lifecycle_ms), "ms");

  // ---- per-layer ---------------------------------------------------------------------
  const auto n = static_cast<double>(reps);
  result.set("persist.append_us_per_trial", 1e6 / median(append_rate), "us");
  result.set("persist.complete_cell_ms_p99", windowed_tail(complete_ms).value,
             "ms");
  result.set("persist.bytes_written_per_trial", bytes_written / n / trials,
             "bytes");
  result.set("persist.fsyncs", fsyncs / n, "count");
  result.set("campaign.diff_ms", median(diff_ms), "ms");
  result.set("campaign.gate_ms", median(gate_ms), "ms");
  result.set("trace.coverage",
             (timed_s + compactions.timed_s() + reads.timed_s()) / measured_s,
             "ratio");
  // The simulator layers do no work on this workload.
  for (const auto& [name, unit] : trial_layer_metrics()) {
    result.set(name, 0.0, unit);
  }
  result.info["repetitions"] = std::to_string(reps);
  result.info["store_trials"] = std::to_string(in.cells.size() * kTrialsPerCell);
  result.info["store_cells"] = std::to_string(in.cells.size());
  result.info["flush_policy"] =
      "StoreOptions{fsync_every=0}: flush per completed cell, fsync only in "
      "compact_store";
}

}  // namespace perfbench
