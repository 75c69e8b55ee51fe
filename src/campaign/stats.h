// Store-backed sweep analysis: distributional statistics computed from
// the per-trial record stream (persist::load_sweep), not
// from the per-cell means the report carries. This is the `campaign_sweep
// stats` subcommand's engine — percentiles need every trial, which only
// the store has. All output is deterministic: cells ascend by global
// index, marginals follow first-appearance order, doubles use the same
// shortest-round-trip formatting as the report CSV.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "persist/campaign_store.h"

namespace msa::campaign {

/// Wilson score interval for a binomial proportion — the small-n-safe
/// confidence interval for per-cell success rates (a normal interval is
/// garbage at the 3-of-5 sample sizes sweeps actually have).
struct WilsonInterval {
  double low = 0.0;
  double high = 0.0;
};

/// z defaults to the 95% two-sided normal quantile. trials == 0 yields
/// the no-information interval [0, 1].
[[nodiscard]] WilsonInterval wilson_interval(std::size_t successes,
                                             std::size_t trials,
                                             double z = 1.959964);

/// Nearest-rank percentile of an ASCENDING-sorted, non-empty sample;
/// q in [0, 100]. q = 0 is the minimum, q = 100 the maximum.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Per-cell distribution over that cell's trial stream.
struct CellDistribution {
  std::uint64_t index = 0;
  /// Ordered axis coordinates, copied from the stored CellStats (a v1
  /// store's cells decode with the synthesized legacy four).
  std::vector<AxisCoordinate> coords;

  std::size_t trials = 0;
  std::size_t successes = 0;  ///< full successes (attack::is_full_success)
  std::size_t denials = 0;
  double p50_psnr = 0.0;
  double p90_psnr = 0.0;
  double p99_psnr = 0.0;
  double success_rate = 0.0;
  WilsonInterval success_ci;
};

/// One value of one sweep axis, pooled over every cell carrying it.
struct AxisMarginal {
  std::string axis;   ///< any swept axis name ("defense", "power_cycled", ...)
  std::string value;  ///< the axis value's label
  std::size_t trials = 0;
  std::size_t successes = 0;
  std::size_t denials = 0;
  double success_rate = 0.0;
  WilsonInterval success_ci;
  double mean_psnr = 0.0;
};

struct StatsReport {
  std::size_t trials_analyzed = 0;
  /// Trial records whose cell never completed (a killed worker's
  /// leftovers) — excluded from every statistic below.
  std::size_t orphan_trials = 0;
  std::vector<CellDistribution> cells;
  std::vector<AxisMarginal> marginals;

  /// Aligned text tables (cells, then marginals).
  [[nodiscard]] std::string to_text() const;
  /// One strict CSV table: a `section` column discriminates cell rows
  /// from marginal rows; columns the other section does not populate are
  /// empty. Doubles are round-trip exact (table::format_double).
  [[nodiscard]] std::string to_csv() const;
  /// {"trials_analyzed":..,"orphan_trials":..,"cells":[..],
  ///  "marginals":[..]} — doubles round-trip exact, infinities as the
  /// +/-1e999 sentinels, NaN as null.
  [[nodiscard]] std::string to_json() const;
};

/// Axis names of one sweep's cells: the first cell's coordinate order
/// (every cell of a sweep shares the schema), the legacy four when there
/// are no cells, so header-only tables keep their historical shape.
[[nodiscard]] std::vector<std::string> axis_columns(
    const std::vector<CellDistribution>& cells);

/// Computes the report from loaded store data. Only completed cells are
/// analyzed; their trial streams are complete by the store's durability
/// contract. Throws std::runtime_error when a completed cell has no
/// trial records at all (a store written by a pre-trial-stream tool).
[[nodiscard]] StatsReport analyze_sweep(const persist::SweepData& data);

}  // namespace msa::campaign
