// Aggregated results of a campaign sweep. Aggregation is defined so the
// report is bit-identical for any worker-thread count: trials within a
// cell are accumulated in trial order, cells are stored in grid order,
// and serialization uses fixed formats (no locale, no pointers, no
// timestamps).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "attack/scenario.h"
#include "campaign/grid.h"

namespace msa::campaign {

/// Per-cell aggregate over `trials` independent scenario runs. The cell's
/// identity is its ordered axis coordinates (copied from the CampaignCell
/// it scored), so reports self-describe whatever axes the sweep used.
struct CellStats {
  std::size_t index = 0;
  std::vector<AxisCoordinate> coords;

  std::size_t trials = 0;
  std::size_t full_successes = 0;  ///< attack::is_full_success per trial
  std::size_t model_identified = 0;
  std::size_t denials = 0;            ///< a defense blocked an attack step
  double mean_pixel_match = 0.0;
  double mean_psnr_db = 0.0;          ///< img::psnr_db caps exact at 99 dB
  double mean_descriptor_pixel_match = 0.0;
  /// Denial reason of the earliest denied trial ("" when none denied).
  std::string first_denial_reason;

  /// Value of `axis` on this cell, nullptr when the sweep lacked it.
  [[nodiscard]] const AxisValue* coord(std::string_view axis) const {
    return find_coord(coords, axis);
  }
  /// Canonical "a=x/b=y" label — error messages, test diagnostics.
  [[nodiscard]] std::string coords_text() const { return coords_label(coords); }

  /// Folds one trial into the aggregate; must be called in trial order.
  void accumulate(const attack::ScenarioResult& result);
  /// Converts running sums into means; call once after the last trial.
  void finalize();

  [[nodiscard]] double success_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(full_successes) /
                             static_cast<double>(trials);
  }
};

/// Whole-sweep report: one CellStats per grid cell, in grid order.
struct SweepReport {
  std::vector<CellStats> cells;

  // Profile-cache hit/miss telemetry for the run that produced this
  // report (deltas, 0 when the cache was off). Deliberately NOT
  // serialized by to_csv()/to_json(): reports stay byte-identical
  // whether the cache was on or off, which the campaign determinism
  // tests require. Both counts are schedule-invariant: the per-key
  // once-latch makes misses == distinct profile keys scored this run.
  // Board-pool traffic is not copied here; it stays on the process-wide
  // cache.victim_boards_* counters.
  std::uint64_t profile_cache_hits = 0;
  std::uint64_t profile_cache_misses = 0;

  [[nodiscard]] std::size_t total_trials() const noexcept;
  [[nodiscard]] std::size_t total_full_successes() const noexcept;
  [[nodiscard]] std::size_t total_denials() const noexcept;

  /// RFC-4180-style CSV with a header row; axis columns come from the
  /// first cell's coordinates (the legacy four when the report is empty);
  /// strings are quoted when they contain a delimiter or quote.
  [[nodiscard]] std::string to_csv() const;
  /// Compact JSON: {"cells":[...],"totals":{...}} with one member per
  /// axis coordinate on each cell.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace msa::campaign
