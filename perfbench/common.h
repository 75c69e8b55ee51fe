// Shared plumbing for the benchmark program: run options, the result
// record every workload fills, timing and percentile helpers, and the
// store read-side measurement both the sweeps and store_scale use.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "attack/profile_cache.h"
#include "campaign/grid.h"
#include "campaign/report.h"
#include "campaign/stats.h"
#include "persist/campaign_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artifacts (stores, span dump, report CSVs).
  std::string out_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds every end-to-end and per-layer
/// metric the run measured; run.py picks the set the caller asked for.
/// `attempted`/`failed` count operations (trials, reads, output checks);
/// a defense denial or an unsuccessful attack is data, not a failure.
struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records an output check; a failed one counts as a failed operation.
  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// A tail percentile and its value.
struct Tail {
  double p = 50.0;
  double value = 0.0;
};

/// Tail of samples in the order they were taken: within each consecutive
/// window of at least 1000 samples, the highest of p99.9 / p99 / p95 /
/// p90 with at least ten samples beyond it (p50 when there are too few
/// for any), then the median over windows, so one slow stretch of a
/// shared machine moves the figure by at most one window. Fewer than
/// 2000 samples make one window.
[[nodiscard]] Tail windowed_tail(const std::vector<double>& samples);

/// A memory field of /proc/self/status ("VmHWM", "VmRSS"), MiB.
[[nodiscard]] double proc_status_mb(const char* field);

/// Value of an obs registry counter.
[[nodiscard]] std::uint64_t counter_value(const char* name);

/// Bitwise equality of two doubles (results are compared bit for bit).
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// load_sweep + analyze_sweep of one store.
[[nodiscard]] msa::campaign::StatsReport analyze_path(const std::string& path);

/// A sweep workload: its grid, trials per cell and per-trial salt.
struct SweepPlan {
  std::string name;
  msa::campaign::GridBuilder grid;
  unsigned trials_per_cell = 1;
  std::uint64_t trial_salt = 0;
  unsigned threads = 4;
};

[[nodiscard]] SweepPlan default_plan(std::uint64_t trial_salt);
[[nodiscard]] SweepPlan residue_plan(std::uint64_t trial_salt);

void run_sweep_workload(const SweepPlan& plan, const Options& options,
                        Result& result);
void run_store_scale(const Options& options, Result& result);

/// Every field of a trial's ScenarioResult in a fixed order, doubles by
/// bit pattern, integers in host byte order. Two outcomes are equal when
/// these bytes are; the reference digests hash them.
[[nodiscard]] std::string outcome_bytes(const msa::attack::ScenarioResult& r);

/// `cell`'s config for `trial`, reseeded exactly as
/// CampaignRunner::score_cell reseeds it.
[[nodiscard]] msa::attack::ScenarioConfig trial_config(
    const msa::campaign::CampaignCell& cell, std::uint32_t trial,
    std::uint64_t trial_salt);

/// One trial through the traced run's decomposition, without spans:
/// its result, and in `scraped_crc` the CRC-32 of the bytes the attacker
/// scraped (0 when a defense stopped the attack before the scrape).
[[nodiscard]] msa::attack::ScenarioResult decomposed_trial(
    const msa::attack::ScenarioConfig& config,
    msa::attack::ProfileCache& cache, std::uint32_t& scraped_crc);

/// The traced run (traced.cpp): performs every trial of `plan` through
/// the public calls run_scenario makes, with a span around each, checks
/// each outcome against run_scenario's, and fills the per-layer metrics.
/// The untraced figures come from the untraced passes of the same run.
void run_traced(const SweepPlan& plan, const Options& options,
                double untraced_trial_ms_mean, Result& result);

/// Names and units of the per-layer metrics of the trial pipeline: the
/// traced run's and the worker pool's. store_scale, which runs no
/// trials, reports them as 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
trial_layer_metrics();

/// Trial records as written, looked up by global cell index.
using WrittenTrials =
    std::function<std::vector<msa::persist::TrialRecord>(std::uint64_t)>;

/// Bit-exact equality of two trial streams.
[[nodiscard]] bool same_trials(
    std::span<const msa::persist::TrialRecord> a,
    std::span<const msa::persist::TrialRecord> b);

/// A cell filter built from the axis values of one cell, adding one
/// swept axis at a time until at most `max_fraction` of `cells` match.
[[nodiscard]] msa::persist::CellFilter range_filter(
    const std::vector<msa::campaign::CellStats>& cells, double max_fraction);

/// The read side of written, compacted stores, accumulated over calls
/// to run(): point reads (StoreReader open + read_cell, cycling over the
/// cells), range reads (read_matching with one filter) and full
/// load_sweep + analyze_sweep passes. Checks every point read returns
/// exactly the written trials and every range read exactly the matching
/// cells.
class ReadBench {
 public:
  ReadBench(std::vector<msa::campaign::CellStats> cells, WrittenTrials written,
            msa::persist::CellFilter filter);

  /// One batch against the store at `path`; returns the analysis of its
  /// first full pass.
  msa::campaign::StatsReport run(const std::string& path, std::size_t points,
                                 std::size_t ranges, std::size_t full_passes);

  /// Sets point_read_ms_*, range_read_ms_p50, stats_s and the persist
  /// read metrics, and records the checks.
  void report(Result& result) const;

  /// Time of every timed call so far, seconds.
  [[nodiscard]] double timed_s() const;
  /// load_sweep + analyze_sweep time of the latest full pass, seconds.
  [[nodiscard]] double last_full_pass_s() const {
    return (load_ms_.back() + analyze_ms_.back()) / 1e3;
  }

 private:
  std::vector<msa::campaign::CellStats> cells_;
  WrittenTrials written_;
  msa::persist::CellFilter filter_;
  std::size_t filter_cells_ = 0;
  std::size_t next_point_ = 0;
  std::vector<double> point_ms_, range_ms_, load_ms_, analyze_ms_;
  std::uint64_t point_bytes_ = 0;
  std::uint64_t blocks_ = 0;
  bool points_ok_ = true;
  bool ranges_ok_ = true;
};

/// compact_store calls, accumulated. compact_s excludes the time a
/// compaction spends blocked in fsync, read off the persist.fsync_ns
/// histogram: on a shared virtual disk that wait swings between runs by
/// more than any usable bound, so it is reported on its own as the
/// per-layer persist.compact_fsync_ms.
class CompactionBench {
 public:
  msa::persist::CompactionResult run(const std::string& path);

  /// Sets compact_s (kept in the record) and the persist compaction
  /// metrics.
  void report(Result& result) const;

  /// compact_s of the latest call.
  [[nodiscard]] double last_s() const { return compute_s_.back(); }
  /// Wall time of every call so far, fsync included, seconds.
  [[nodiscard]] double timed_s() const { return wall_s_; }

 private:
  std::vector<double> compute_s_;
  std::vector<double> fsync_ms_;
  double wall_s_ = 0.0;
  double rewritten_ = 0.0;
  double space_amp_ = 0.0;
};

}  // namespace perfbench
