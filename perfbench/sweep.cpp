// The sweep workloads. One run repeats rounds of three steps until
// --seconds have passed:
//   1. the production sweep — grid build, a fresh 4-thread CampaignRunner
//      (cold profile cache) and a fresh store are the set-up (setup_s,
//      timed five times), CampaignRunner::run into the store the sweep
//      (trials_per_s);
//   2. a single-thread pass over the same cells through
//      CampaignRunner::score_cell, timing each trial between on_trial
//      calls and each store append/complete_cell (trial_ms_*,
//      append_trials_per_s);
//   3. compaction of the sweep's store, point reads, range reads and
//      load+analyze passes over it, and diff+gate against the pass's
//      store (compact_s, point/range_read_ms_*, stats_s, diff_gate_s).
// Each metric is the median over its samples from every round. Then the
// grid runs once more under the default trial salt, whose report run.py
// checks against recorded digests: the 4-thread report, and every
// trial's full outcome (outcome_bytes) and scraped bytes from a
// single-thread pass. With
// --trace 1 the traced decomposition follows (traced.cpp).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "campaign/compare.h"
#include "campaign/gate.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "common.h"
#include "obs/metrics.h"
#include "persist/store_reader.h"

namespace perfbench {

namespace {

using namespace msa;
namespace fs = std::filesystem;

attack::ScenarioConfig base_config() {
  attack::ScenarioConfig base;  // zcu104 board
  base.image_width = 96;
  base.image_height = 96;
  return base;
}

persist::StoreManifest manifest_for(const SweepPlan& plan,
                                    const campaign::GridBuilder& grid) {
  persist::StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = plan.trials_per_cell;
  manifest.trial_salt = plan.trial_salt;
  manifest.axes = grid.axis_schema();
  return manifest;
}

campaign::CampaignOptions runner_options(const SweepPlan& plan,
                                         std::uint64_t salt) {
  campaign::CampaignOptions options;
  options.threads = plan.threads;
  options.trials_per_cell = plan.trials_per_cell;
  options.trial_salt = salt;
  return options;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary};
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Four workers, or fewer on a machine with fewer hardware threads.
unsigned worker_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// A production sweep's set-up: grid build, a fresh runner (threads
/// spawned, profile cache cold) and a fresh store.
struct Setup {
  std::vector<campaign::CampaignCell> cells;
  std::unique_ptr<campaign::CampaignRunner> runner;
  std::unique_ptr<persist::CampaignStore> store;
};

Setup set_up(const SweepPlan& plan, const std::string& path) {
  campaign::GridBuilder grid = plan.grid;
  Setup setup;
  setup.cells = grid.build();
  setup.runner = std::make_unique<campaign::CampaignRunner>(
      runner_options(plan, plan.trial_salt));
  setup.store = std::make_unique<persist::CampaignStore>(
      path, manifest_for(plan, grid), persist::CampaignStore::Mode::kCreate);
  return setup;
}

/// One production sweep: CampaignRunner::run into the store.
struct SweepRep {
  std::vector<double> setup_s;
  double run_s = 0.0;
  std::size_t trials = 0;
  std::string csv;
};

SweepRep run_sweep(const SweepPlan& plan, const std::string& path) {
  SweepRep rep;
  // Set-up takes well under a millisecond, so it is timed five times;
  // the first four set-ups are torn down unused.
  for (int i = 0; i < 4; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      const Setup unused = set_up(plan, path);
      rep.setup_s.push_back(seconds_since(t0));
    }
    fs::remove(path);
  }
  const Clock::time_point t0 = Clock::now();
  Setup setup = set_up(plan, path);
  const Clock::time_point t1 = Clock::now();
  const campaign::SweepReport report =
      setup.runner->run(setup.cells, *setup.store);
  const Clock::time_point t2 = Clock::now();
  rep.setup_s.push_back(ms_between(t0, t1) / 1e3);
  rep.run_s = ms_between(t1, t2) / 1e3;
  rep.trials = report.total_trials();
  rep.csv = report.to_csv();
  return rep;
}

/// One single-thread pass through score_cell with a cold cache,
/// streaming into a store exactly as a pool worker does. Each trial is
/// timed between on_trial calls, the store calls separately.
struct PassRep {
  double append_s = 0.0;  ///< from_result + append_trial + complete_cell
  std::size_t trials = 0;
  std::string csv;
  std::map<std::uint64_t, std::vector<persist::TrialRecord>> written;
};

PassRep run_pass(const SweepPlan& plan,
                 const std::vector<campaign::CampaignCell>& cells,
                 const persist::StoreManifest& manifest, const std::string& path,
                 std::vector<double>& trial_ms, std::vector<double>& complete_ms) {
  PassRep pass;
  attack::ProfileCache cache;
  persist::CampaignStore store{path, manifest,
                               persist::CampaignStore::Mode::kCreate};
  campaign::SweepReport report;
  for (const campaign::CampaignCell& cell : cells) {
    Clock::time_point trial_start = Clock::now();
    const campaign::CellStats stats = campaign::CampaignRunner::score_cell(
        cell, plan.trials_per_cell, plan.trial_salt,
        [&](std::uint32_t trial, const attack::ScenarioResult& r) {
          const Clock::time_point trial_end = Clock::now();
          trial_ms.push_back(ms_between(trial_start, trial_end));
          const persist::TrialRecord record =
              persist::TrialRecord::from_result(cell.index, trial, r);
          store.append_trial(record);
          pass.written[cell.index].push_back(record);
          trial_start = Clock::now();
          pass.append_s += ms_between(trial_end, trial_start) / 1e3;
        },
        &cache);
    const Clock::time_point c0 = Clock::now();
    store.complete_cell(stats);
    complete_ms.push_back(ms_between(c0, Clock::now()));
    pass.append_s += complete_ms.back() / 1e3;
    pass.trials += stats.trials;
    report.cells.push_back(stats);
  }
  pass.csv = report.to_csv();
  return pass;
}

}  // namespace

SweepPlan default_plan(std::uint64_t trial_salt) {
  // campaign_sweep's default grid: 2 defenses x 2 models x 3 delays x 2
  // scrubber rates = 24 cells.
  campaign::GridBuilder grid{base_config()};
  grid.defenses({"baseline", "zero_on_free"})
      .models({"resnet50_pt", "squeezenet_pt"})
      .attack_delays_s({0.0, 5.0, 60.0})
      .scrubber_rates({0.0, 4.0 * 1024 * 1024});
  return SweepPlan{"sweep_default", grid, 16, trial_salt, worker_threads()};
}

SweepPlan residue_plan(std::uint64_t trial_salt) {
  // Power-cycled live-window trials (half-life 2 s and 16 s) crossed with
  // post-mortem physical sweeps of 1 MiB and 8 MiB: 8 cells.
  using campaign::AxisValue;
  campaign::GridBuilder grid{base_config()};
  grid.models({"squeezenet_pt"})
      .attack_delays_s({5.0})
      .axis("power_cycled", {AxisValue::of_bool(true)})
      .axis("retention_half_life_s",
            {AxisValue::of_number(2.0), AxisValue::of_number(16.0)})
      .axis("post_mortem_scan",
            {AxisValue::of_bool(false), AxisValue::of_bool(true)})
      .axis("scan_bytes", {AxisValue::of_number(1024.0 * 1024),
                           AxisValue::of_number(8.0 * 1024 * 1024)});
  return SweepPlan{"sweep_residue", grid, 24, trial_salt, worker_threads()};
}

void run_sweep_workload(const SweepPlan& plan, const Options& options,
                        Result& result) {
  const std::string dir = options.out_dir + "/" + plan.name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  campaign::GridBuilder grid = plan.grid;
  const std::vector<campaign::CampaignCell> cells = grid.build();
  const persist::StoreManifest manifest = manifest_for(plan, grid);

  // Rounds of {production sweep, single-thread pass, store reads} until
  // --seconds have passed, so every metric samples the whole run and
  // its median is robust to a slow stretch of the machine.
  std::vector<double> setup_s, sweep_rate, trial_ms, complete_ms, append_rate,
      diff_ms, gate_ms, diff_gate_s;
  CompactionBench compactions;
  std::size_t sweep_trials = 0, pass_trials = 0, rounds = 0;
  double sweep_bytes = 0.0, fsyncs = 0.0;
  bool csv_equal = true, stats_identical = true, silent = true;
  std::string first_csv;
  std::map<std::uint64_t, std::vector<persist::TrialRecord>> written;
  std::optional<ReadBench> reads;
  const std::uint64_t gate_seed =
      campaign::gate_seed(manifest.grid_fingerprint, manifest.grid_fingerprint);
  const Clock::time_point start = Clock::now();
  for (; rounds < 3 || trial_ms.size() < 1000 ||
         seconds_since(start) < options.seconds;
       ++rounds) {
    const std::string round_dir = dir + "/round" + std::to_string(rounds);
    fs::create_directories(round_dir);
    const std::string sweep_path = round_dir + "/sweep.store";
    const std::string pass_path = round_dir + "/pass.store";

    const std::uint64_t bytes_before = counter_value("persist.bytes_written");
    const std::uint64_t fsyncs_before = counter_value("persist.fsyncs");
    const SweepRep sweep = run_sweep(plan, sweep_path);
    sweep_bytes += static_cast<double>(
        counter_value("persist.bytes_written") - bytes_before);
    setup_s.insert(setup_s.end(), sweep.setup_s.begin(), sweep.setup_s.end());
    sweep_rate.push_back(static_cast<double>(sweep.trials) / sweep.run_s);
    sweep_trials += sweep.trials;
    if (rounds == 0) first_csv = sweep.csv;

    PassRep pass =
        run_pass(plan, cells, manifest, pass_path, trial_ms, complete_ms);
    pass_trials += pass.trials;
    append_rate.push_back(static_cast<double>(pass.trials) / pass.append_s);
    csv_equal = csv_equal && pass.csv == sweep.csv && sweep.csv == first_csv;
    if (rounds == 0) written = std::move(pass.written);

    const std::string flat_stats = analyze_path(sweep_path).to_csv();
    (void)compactions.run(sweep_path);
    fsyncs += static_cast<double>(counter_value("persist.fsyncs") - fsyncs_before);

    if (!reads) {
      std::vector<campaign::CellStats> stored =
          persist::StoreReader{sweep_path}.cells();
      persist::CellFilter filter = range_filter(stored, 0.25);
      reads.emplace(std::move(stored),
                    [&written](std::uint64_t cell) {
                      const auto it = written.find(cell);
                      return it == written.end()
                                 ? std::vector<persist::TrialRecord>{}
                                 : it->second;
                    },
                    std::move(filter));
    }
    const campaign::StatsReport a =
        reads->run(sweep_path, 500, 40, 40);
    stats_identical = stats_identical && a.to_csv() == flat_stats;

    // diff + gate of the 4-thread store against the single-thread one:
    // the same trials, so every delta is zero and the gate stays silent.
    const campaign::StatsReport b = analyze_path(pass_path);
    for (int i = 0; i < 20; ++i) {
      const Clock::time_point t0 = Clock::now();
      const campaign::DiffReport diff = campaign::diff_sweeps(a, b);
      const Clock::time_point t1 = Clock::now();
      const campaign::GateResult gate =
          campaign::evaluate_gate(diff, campaign::GateSpec{}, gate_seed);
      const Clock::time_point t2 = Clock::now();
      diff_ms.push_back(ms_between(t0, t1));
      gate_ms.push_back(ms_between(t1, t2));
      diff_gate_s.push_back(ms_between(t0, t2) / 1e3);
      bool zero = diff.cells.size() == cells.size() &&
                  diff.only_in_a.empty() && diff.only_in_b.empty();
      for (const campaign::CellDelta& d : diff.cells) {
        zero = zero && d.success_delta == 0.0 && d.denial_delta == 0.0;
      }
      silent = silent && zero && !gate.tripped();
    }
    fs::remove_all(round_dir);
  }
  result.attempted += sweep_trials + pass_trials;
  result.check("report_csv_threads_equal", csv_equal);
  result.check("stats_equal_after_compaction", stats_identical);
  result.check("self_diff_zero_and_gate_silent", silent);
  reads->report(result);
  write_file(dir + "/report.csv", first_csv);

  // The outcomes under the default trial salt, for run.py's digest
  // checks: the 4-thread report, and from a single-thread score_cell pass,
  // in cell and trial order, each trial's key, the CRC-32 of the bytes
  // the attacker scraped and its full outcome. The scraped bytes come
  // from the traced run's decomposition of the same trial, whose outcome
  // must equal score_cell's: residue in which nothing is identified
  // reaches no ScenarioResult field, so only they pin a remanence or
  // scrape change there.
  {
    const std::uint64_t salt = campaign::CampaignOptions{}.trial_salt;
    campaign::CampaignRunner runner{runner_options(plan, salt)};
    const campaign::SweepReport reference = runner.run(plan.grid);
    result.attempted += reference.total_trials();
    write_file(dir + "/reference.csv", reference.to_csv());

    const std::string path = dir + "/outcomes.bin";
    std::ofstream outcomes{path, std::ios::binary};
    attack::ProfileCache cache, decomposed_cache;
    bool decomposed_equal = true;
    for (const campaign::CampaignCell& cell : cells) {
      (void)campaign::CampaignRunner::score_cell(
          cell, plan.trials_per_cell, salt,
          [&](std::uint32_t trial, const attack::ScenarioResult& r) {
            const std::string bytes = outcome_bytes(r);
            std::uint32_t scraped_crc = 0;
            decomposed_equal =
                decomposed_equal &&
                outcome_bytes(decomposed_trial(trial_config(cell, trial, salt),
                                               decomposed_cache,
                                               scraped_crc)) == bytes;
            const std::uint64_t key[3] = {cell.index, trial, scraped_crc};
            outcomes.write(reinterpret_cast<const char*>(key), sizeof key);
            outcomes.write(bytes.data(),
                           static_cast<std::streamsize>(bytes.size()));
            ++result.attempted;
          },
          &cache);
    }
    if (!outcomes) throw std::runtime_error("cannot write " + path);
    result.check("reference_decomposition_equals_score_cell", decomposed_equal);
  }

  const double trials_per_s = median(sweep_rate);
  const Tail tail = windowed_tail(trial_ms);
  result.set("setup_s", median(setup_s), "s");
  result.set("trials_per_s", trials_per_s, "1/s");
  result.set("trial_ms_p50", median(trial_ms), "ms");
  result.set("trial_ms_p99", tail.value, "ms");
  result.set("append_trials_per_s", median(append_rate), "1/s");
  compactions.report(result);
  result.set("diff_gate_s", median(diff_gate_s), "s");

  const double trial_ms_mean = mean(trial_ms);
  const auto n = static_cast<double>(rounds);
  result.set("campaign.scaling_efficiency",
             trials_per_s * trial_ms_mean / (1000.0 * plan.threads), "ratio");
  result.set("campaign.queue_wait_ns_p99",
             obs::histogram("campaign.queue_wait_ns").percentile(99.0), "ns");
  result.set("persist.append_us_per_trial", 1e6 / median(append_rate), "us");
  result.set("persist.complete_cell_ms_p99", windowed_tail(complete_ms).value,
             "ms");
  result.set("persist.bytes_written_per_trial",
             sweep_bytes / static_cast<double>(sweep_trials), "bytes");
  result.set("persist.fsyncs", fsyncs / n, "count");
  result.set("campaign.diff_ms", median(diff_ms), "ms");
  result.set("campaign.gate_ms", median(gate_ms), "ms");
  result.info["rounds"] = std::to_string(rounds);
  result.info["trial_ms_samples"] = std::to_string(trial_ms.size());
  result.info["trial_ms_p99_percentile"] = std::to_string(tail.p);
  result.info["trial_salt"] = std::to_string(plan.trial_salt);
  result.info["trials_per_cell"] = std::to_string(plan.trials_per_cell);
  result.info["cells"] = std::to_string(cells.size());
  result.info["worker_threads"] = std::to_string(plan.threads);

  if (options.trace) run_traced(plan, options, trial_ms_mean, result);
}

}  // namespace perfbench
