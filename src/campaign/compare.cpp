#include "campaign/compare.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "campaign/table.h"

namespace msa::campaign {

namespace {

using table::Align;
using table::Cell;
using table::Column;
using table::Table;
using table::axis_text_header;
using table::axis_value_cell;
using table::bool_cell;
using table::count_cell;
using table::num_cell;
using table::str_cell;

double rate(std::size_t numerator, std::size_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

/// Ordered axis names of an analyzed sweep; empty for an empty sweep.
std::vector<std::string> schema_of(const StatsReport& r) {
  return r.cells.empty() ? std::vector<std::string>{} : axis_columns(r.cells);
}

/// Projects a cell onto the shared axes, in shared order. A cell missing
/// one of them means the store mixes schemas — alignment is impossible.
AxisKey project(const CellDistribution& c,
                const std::vector<std::string>& shared, const char* side) {
  AxisKey key;
  key.coords.reserve(shared.size());
  for (const std::string& axis : shared) {
    const AxisValue* v = find_coord(c.coords, axis);
    if (v == nullptr) {
      throw std::runtime_error(std::string("diff: sweep ") + side + " cell " +
                               std::to_string(c.index) + " lacks axis '" +
                               axis + "' (store mixes schemas?)");
    }
    key.coords.push_back({axis, *v});
  }
  return key;
}

/// Cells keyed by their shared-axis values; a duplicate key makes the
/// cross-sweep pairing ambiguous and is rejected outright. Non-finite
/// numeric axis values are rejected too — the CLI no longer produces
/// them, but a store written by an older binary can still carry them,
/// and a NaN key would break the map's strict weak ordering.
std::map<AxisKey, const CellDistribution*> index_cells(
    const StatsReport& r, const char* side,
    const std::vector<std::string>& shared) {
  std::map<AxisKey, const CellDistribution*> out;
  for (const CellDistribution& c : r.cells) {
    for (const AxisCoordinate& coord : c.coords) {
      if (coord.value.kind == AxisKind::kDouble &&
          !std::isfinite(coord.value.num)) {
        throw std::runtime_error(
            std::string("diff: sweep ") + side + " cell " +
            std::to_string(c.index) +
            " has a non-finite axis value (store written by a pre-validation "
            "tool?) — axis alignment needs finite coordinates");
      }
    }
    AxisKey key = project(c, shared, side);
    const std::string label = key.label();
    const auto [it, inserted] = out.emplace(std::move(key), &c);
    if (!inserted) {
      throw std::runtime_error(
          std::string("diff: sweep ") + side +
          " has two cells with the same axis values (" + label +
          ") — alignment by axis is ambiguous");
    }
  }
  return out;
}

std::map<std::pair<std::string, std::string>, const AxisMarginal*>
index_marginals(const StatsReport& r, const char* side) {
  std::map<std::pair<std::string, std::string>, const AxisMarginal*> out;
  for (const AxisMarginal& m : r.marginals) {
    const auto [it, inserted] = out.emplace(std::pair{m.axis, m.value}, &m);
    if (!inserted) {
      throw std::runtime_error(std::string("diff: sweep ") + side +
                               " repeats marginal " + m.axis + "=" + m.value);
    }
  }
  return out;
}

Cell delta_ci_cell(const DeltaInterval& ci) {
  return table::interval_cell(ci.low, ci.high);
}

}  // namespace

bool AxisKey::operator<(const AxisKey& other) const {
  const std::size_t n = std::min(coords.size(), other.coords.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (coords[i].axis != other.coords[i].axis) {
      return coords[i].axis < other.coords[i].axis;
    }
    if (!(coords[i].value == other.coords[i].value)) {
      return coords[i].value < other.coords[i].value;
    }
  }
  return coords.size() < other.coords.size();
}

std::string AxisKey::label() const { return coords_label(coords); }

double newcombe_p_value(std::size_t successes_a, std::size_t trials_a,
                        std::size_t successes_b, std::size_t trials_b) {
  if (trials_a == 0 || trials_b == 0) return 1.0;  // no information
  const auto excludes_zero_at = [&](double z) {
    return newcombe_interval(successes_a, trials_a, successes_b, trials_b, z)
        .excludes_zero();
  };
  // The interval width grows monotonically in z (both Wilson intervals
  // widen), so "excludes zero" flips exactly once. Bisect for the
  // crossing z* and map it through the two-sided normal tail. At z -> 0
  // the interval collapses onto the observed delta, so a zero delta
  // never excludes zero and yields p = 1.
  double lo = 1e-8;
  double hi = 40.0;  // erfc(40/sqrt2) underflows to 0 — effectively p=0
  if (!excludes_zero_at(lo)) return 1.0;
  if (excludes_zero_at(hi)) return 0.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    (excludes_zero_at(mid) ? lo : hi) = mid;
  }
  return std::erfc(0.5 * (lo + hi) / std::sqrt(2.0));
}

std::vector<double> benjamini_hochberg(const std::vector<double>& p_values) {
  for (const double p : p_values) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("benjamini_hochberg: p-value " +
                                  std::to_string(p) + " outside [0, 1]");
    }
  }
  const std::size_t m = p_values.size();
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  // Ties broken by original position so the adjustment is deterministic.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p_values[a] != p_values[b] ? p_values[a] < p_values[b] : a < b;
  });
  // Step-up from the largest p: q_(i) = min(q_(i+1), p_(i) * m / i),
  // clamped to 1. Every q >= its raw p because m / rank >= 1.
  std::vector<double> adjusted(m);
  double running = 1.0;
  for (std::size_t r = m; r > 0; --r) {
    const std::size_t idx = order[r - 1];
    running = std::min(
        running, std::min(1.0, p_values[idx] * static_cast<double>(m) /
                                   static_cast<double>(r)));
    adjusted[idx] = running;
  }
  return adjusted;
}

DeltaInterval newcombe_interval(std::size_t successes_a, std::size_t trials_a,
                                std::size_t successes_b, std::size_t trials_b,
                                double z) {
  const double pa = rate(successes_a, trials_a);
  const double pb = rate(successes_b, trials_b);
  const WilsonInterval wa = wilson_interval(successes_a, trials_a, z);
  const WilsonInterval wb = wilson_interval(successes_b, trials_b, z);
  const double delta = pb - pa;
  // Newcombe (1998) method 10 / MOVER: compose the two Wilson intervals
  // into an interval for the difference.
  const double low = delta - std::sqrt((pb - wb.low) * (pb - wb.low) +
                                       (wa.high - pa) * (wa.high - pa));
  const double high = delta + std::sqrt((wb.high - pb) * (wb.high - pb) +
                                        (pa - wa.low) * (pa - wa.low));
  return {std::max(-1.0, low), std::min(1.0, high)};
}

DiffReport diff_sweeps(const StatsReport& a, const StatsReport& b) {
  const auto marginals_a = index_marginals(a, "A");
  const auto marginals_b = index_marginals(b, "B");

  DiffReport out;
  const std::vector<std::string> schema_a = schema_of(a);
  const std::vector<std::string> schema_b = schema_of(b);
  for (const std::string& axis : schema_a) {
    if (std::find(schema_b.begin(), schema_b.end(), axis) != schema_b.end()) {
      out.shared_axes.push_back(axis);
    }
  }

  if (out.shared_axes.empty()) {
    // One side is empty, or the schemas are disjoint: no cell can pair,
    // so everything lists as one-sided and only the marginals compare.
    out.only_in_a = a.cells;
    out.only_in_b = b.cells;
  } else {
    const auto cells_a = index_cells(a, "A", out.shared_axes);
    const auto cells_b = index_cells(b, "B", out.shared_axes);
    for (const auto& [key, ca] : cells_a) {
      const auto it = cells_b.find(key);
      if (it == cells_b.end()) {
        out.only_in_a.push_back(*ca);
        continue;
      }
      const CellDistribution& cb = *it->second;

      CellDelta d;
      d.key = key;
      d.index_a = ca->index;
      d.index_b = cb.index;
      d.trials_a = ca->trials;
      d.trials_b = cb.trials;
      d.successes_a = ca->successes;
      d.successes_b = cb.successes;
      d.denials_a = ca->denials;
      d.denials_b = cb.denials;
      d.success_rate_a = ca->success_rate;
      d.success_rate_b = cb.success_rate;
      d.success_delta = cb.success_rate - ca->success_rate;
      d.success_delta_ci = newcombe_interval(ca->successes, ca->trials,
                                             cb.successes, cb.trials);
      d.significant = d.success_delta_ci.excludes_zero();
      d.p_value = newcombe_p_value(ca->successes, ca->trials, cb.successes,
                                   cb.trials);
      d.denial_rate_a = rate(ca->denials, ca->trials);
      d.denial_rate_b = rate(cb.denials, cb.trials);
      d.denial_delta = d.denial_rate_b - d.denial_rate_a;
      d.p50_shift = cb.p50_psnr - ca->p50_psnr;
      d.p90_shift = cb.p90_psnr - ca->p90_psnr;
      d.p99_shift = cb.p99_psnr - ca->p99_psnr;
      if (d.significant) ++out.significant_cells;
      out.cells.push_back(std::move(d));
    }
    for (const auto& [key, cb] : cells_b) {
      if (!cells_a.contains(key)) out.only_in_b.push_back(*cb);
    }
  }

  // FDR correction over the whole matched family: the per-cell Newcombe
  // flags each run at 5%, so on a big matrix several "significant" cells
  // are expected by chance alone; BH bounds the expected fraction of
  // false flags among the flagged at 5% instead.
  if (!out.cells.empty()) {
    std::vector<double> p_values;
    p_values.reserve(out.cells.size());
    for (const CellDelta& d : out.cells) p_values.push_back(d.p_value);
    const std::vector<double> adjusted = benjamini_hochberg(p_values);
    for (std::size_t i = 0; i < out.cells.size(); ++i) {
      CellDelta& d = out.cells[i];
      d.p_value_fdr = adjusted[i];
      d.significant_fdr =
          d.significant && d.p_value_fdr <= kSignificanceAlpha;
      if (d.significant_fdr) ++out.significant_cells_fdr;
    }
  }

  // Marginals in side A's order (axis blocks in schema order, values by
  // side-A first appearance); side-B-only values have no delta to report
  // and surface through the unmatched cell lists instead.
  for (const AxisMarginal& ma : a.marginals) {
    const auto it = marginals_b.find(std::pair{ma.axis, ma.value});
    if (it == marginals_b.end()) continue;
    const AxisMarginal& mb = *it->second;

    AxisDelta d;
    d.axis = ma.axis;
    d.value = ma.value;
    d.trials_a = ma.trials;
    d.trials_b = mb.trials;
    d.successes_a = ma.successes;
    d.successes_b = mb.successes;
    d.denials_a = ma.denials;
    d.denials_b = mb.denials;
    d.success_rate_a = ma.success_rate;
    d.success_rate_b = mb.success_rate;
    d.success_delta = mb.success_rate - ma.success_rate;
    d.success_delta_ci =
        newcombe_interval(ma.successes, ma.trials, mb.successes, mb.trials);
    d.significant = d.success_delta_ci.excludes_zero();
    d.denial_delta = rate(mb.denials, mb.trials) - rate(ma.denials, ma.trials);
    d.mean_psnr_shift = mb.mean_psnr - ma.mean_psnr;
    out.marginals.push_back(std::move(d));
  }

  return out;
}

const char* diff_metric_name(DiffMetric metric) noexcept {
  switch (metric) {
    case DiffMetric::kSuccessRate: return "success_rate";
    case DiffMetric::kDenialRate: return "denial";
    case DiffMetric::kPsnrP50: return "psnr_p50";
  }
  return "?";
}

bool parse_diff_metric(std::string_view name, DiffMetric* metric) noexcept {
  if (name == "success_rate") *metric = DiffMetric::kSuccessRate;
  else if (name == "denial") *metric = DiffMetric::kDenialRate;
  else if (name == "psnr_p50") *metric = DiffMetric::kPsnrP50;
  else return false;
  return true;
}

double cell_metric_delta(const CellDelta& cell, DiffMetric metric) noexcept {
  switch (metric) {
    case DiffMetric::kSuccessRate: return cell.success_delta;
    case DiffMetric::kDenialRate: return cell.denial_delta;
    case DiffMetric::kPsnrP50: return cell.p50_shift;
  }
  return 0.0;
}

std::vector<double> paired_deltas(const DiffReport& diff, DiffMetric metric) {
  std::vector<double> deltas;
  deltas.reserve(diff.cells.size());
  for (const CellDelta& d : diff.cells) {
    deltas.push_back(cell_metric_delta(d, metric));
  }
  return deltas;
}

namespace {

/// Column alignment for an axis: textual values left, numeric right. The
/// sample coordinate list decides; the registry kind is the fallback for
/// axes with no sample row (empty tables render headers only, where the
/// choice is invisible anyway).
Align axis_align(const std::string& axis,
                 const std::vector<AxisCoordinate>* sample) {
  AxisKind kind = AxisKind::kDouble;
  if (const AxisValue* v = sample ? find_coord(*sample, axis) : nullptr) {
    kind = v->kind;
  } else if (const AxisDescriptor* d = find_axis(axis)) {
    kind = d->kind;
  }
  return kind == AxisKind::kString || kind == AxisKind::kEnum ? Align::kLeft
                                                              : Align::kRight;
}

Table unmatched_table(const std::vector<CellDistribution>& cells) {
  const std::vector<std::string> axes = axis_columns(cells);
  const std::vector<AxisCoordinate>* sample =
      cells.empty() ? nullptr : &cells.front().coords;
  std::vector<Column> columns{{"index", Align::kLeft}};
  for (const std::string& axis : axes) {
    columns.push_back({axis_text_header(axis), axis_align(axis, sample)});
  }
  for (const char* name : {"trials", "success", "denials"}) {
    columns.push_back({name, Align::kRight});
  }
  Table t{std::move(columns)};
  for (const CellDistribution& c : cells) {
    std::vector<Cell> row{count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(c.trials));
    row.push_back(num_cell(c.success_rate, 3));
    row.push_back(count_cell(c.denials));
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace

std::string DiffReport::to_text() const {
  std::string out;
  out += "== cross-sweep diff (B minus A): " + std::to_string(cells.size()) +
         " matched cell(s), " + std::to_string(significant_cells) +
         " significant (" + std::to_string(significant_cells_fdr) +
         " after FDR), " + std::to_string(only_in_a.size()) + " A-only, " +
         std::to_string(only_in_b.size()) + " B-only ==\n";
  const std::vector<std::string> matched_axes =
      shared_axes.empty() ? legacy_axis_names() : shared_axes;
  const std::vector<AxisCoordinate>* sample =
      cells.empty() ? nullptr : &cells.front().key.coords;
  std::vector<Column> cell_columns;
  for (const std::string& axis : matched_axes) {
    cell_columns.push_back({axis_text_header(axis), axis_align(axis, sample)});
  }
  for (const char* name :
       {"trials_a", "trials_b", "succ_a", "succ_b", "delta", "delta_ci95"}) {
    cell_columns.push_back({name, Align::kRight});
  }
  cell_columns.push_back({"sig", Align::kLeft});
  cell_columns.push_back({"p_fdr", Align::kRight});
  cell_columns.push_back({"sig_fdr", Align::kLeft});
  for (const char* name : {"den_delta", "p50_shift", "p90_shift", "p99_shift"}) {
    cell_columns.push_back({name, Align::kRight});
  }
  Table cell_table{std::move(cell_columns)};
  for (const CellDelta& d : cells) {
    std::vector<Cell> row;
    for (const AxisCoordinate& coord : d.key.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(d.trials_a));
    row.push_back(count_cell(d.trials_b));
    row.push_back(num_cell(d.success_rate_a, 3));
    row.push_back(num_cell(d.success_rate_b, 3));
    row.push_back(num_cell(d.success_delta, 3));
    row.push_back(delta_ci_cell(d.success_delta_ci));
    row.push_back(bool_cell(d.significant));
    row.push_back(table::pvalue_cell(d.p_value_fdr));
    row.push_back(bool_cell(d.significant_fdr));
    row.push_back(num_cell(d.denial_delta, 3));
    row.push_back(num_cell(d.p50_shift, 2));
    row.push_back(num_cell(d.p90_shift, 2));
    row.push_back(num_cell(d.p99_shift, 2));
    cell_table.add_row(std::move(row));
  }
  out += cell_table.to_text();

  out += "\n== unmatched cells (A only: " + std::to_string(only_in_a.size()) +
         ") ==\n";
  out += unmatched_table(only_in_a).to_text();
  out += "\n== unmatched cells (B only: " + std::to_string(only_in_b.size()) +
         ") ==\n";
  out += unmatched_table(only_in_b).to_text();

  out += "\n== per-axis marginal deltas ==\n";
  Table marginal_table{{{"axis", Align::kLeft},
                        {"value", Align::kLeft},
                        {"trials_a", Align::kRight},
                        {"trials_b", Align::kRight},
                        {"succ_a", Align::kRight},
                        {"succ_b", Align::kRight},
                        {"delta", Align::kRight},
                        {"delta_ci95", Align::kRight},
                        {"sig", Align::kLeft},
                        {"den_delta", Align::kRight},
                        {"psnr_shift", Align::kRight}}};
  for (const AxisDelta& d : marginals) {
    marginal_table.add_row(
        {str_cell(d.axis), str_cell(d.value), count_cell(d.trials_a),
         count_cell(d.trials_b), num_cell(d.success_rate_a, 3),
         num_cell(d.success_rate_b, 3), num_cell(d.success_delta, 3),
         delta_ci_cell(d.success_delta_ci), bool_cell(d.significant),
         num_cell(d.denial_delta, 3), num_cell(d.mean_psnr_shift, 2)});
  }
  out += marginal_table.to_text();
  return out;
}

namespace {

/// Axis-column union for the flat CSV: the shared axes first (side A
/// order), then any side-only axes in appearance order, the legacy four
/// when everything is empty. Rows leave the columns their schema lacks
/// empty.
std::vector<std::string> csv_axis_union(const DiffReport& r) {
  std::vector<std::string> axes = r.shared_axes;
  const auto add_side = [&axes](const std::vector<CellDistribution>& side) {
    if (side.empty()) return;
    for (const AxisCoordinate& c : side.front().coords) {
      if (std::find(axes.begin(), axes.end(), c.axis) == axes.end()) {
        axes.push_back(c.axis);
      }
    }
  };
  add_side(r.only_in_a);
  add_side(r.only_in_b);
  if (axes.empty()) axes = legacy_axis_names();
  return axes;
}

}  // namespace

namespace {

/// The `cells` section: the JSON array and the CSV's cell rows.
Table cell_delta_table(const DiffReport& r) {
  std::vector<Column> columns;
  for (const std::string& axis :
       r.shared_axes.empty() ? legacy_axis_names() : r.shared_axes) {
    columns.push_back({axis});
  }
  for (const char* name :
       {"index_a", "index_b", "trials_a", "trials_b", "successes_a",
        "successes_b", "denials_a", "denials_b", "success_rate_a",
        "success_rate_b", "success_delta", "delta_ci95_low", "delta_ci95_high",
        "significant", "p_value", "p_value_fdr", "significant_fdr",
        "denial_rate_a", "denial_rate_b", "denial_delta", "p50_shift",
        "p90_shift", "p99_shift"}) {
    columns.push_back({name});
  }
  Table t{std::move(columns)};
  for (const CellDelta& d : r.cells) {
    std::vector<Cell> row;
    for (const AxisCoordinate& coord : d.key.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(d.index_a));
    row.push_back(count_cell(d.index_b));
    row.push_back(count_cell(d.trials_a));
    row.push_back(count_cell(d.trials_b));
    row.push_back(count_cell(d.successes_a));
    row.push_back(count_cell(d.successes_b));
    row.push_back(count_cell(d.denials_a));
    row.push_back(count_cell(d.denials_b));
    row.push_back(num_cell(d.success_rate_a));
    row.push_back(num_cell(d.success_rate_b));
    row.push_back(num_cell(d.success_delta));
    row.push_back(num_cell(d.success_delta_ci.low));
    row.push_back(num_cell(d.success_delta_ci.high));
    row.push_back(bool_cell(d.significant));
    row.push_back(num_cell(d.p_value));
    row.push_back(num_cell(d.p_value_fdr));
    row.push_back(bool_cell(d.significant_fdr));
    row.push_back(num_cell(d.denial_rate_a));
    row.push_back(num_cell(d.denial_rate_b));
    row.push_back(num_cell(d.denial_delta));
    row.push_back(num_cell(d.p50_shift));
    row.push_back(num_cell(d.p90_shift));
    row.push_back(num_cell(d.p99_shift));
    t.add_row(std::move(row));
  }
  return t;
}

/// One side's unmatched cells. The JSON array names its columns plainly
/// ("trials"); the CSV shares one header with the matched cells, so
/// there `suffix` ("_a"/"_b") puts each value under its side's column
/// and a denial_rate column joins.
Table side_table(const std::vector<CellDistribution>& side,
                 const std::string& suffix = "") {
  const bool csv = !suffix.empty();
  const std::vector<std::string> axes = axis_columns(side);
  std::vector<Column> columns{{"index" + suffix}};
  for (const std::string& axis : axes) columns.push_back({axis});
  for (const char* name : {"trials", "successes", "denials", "success_rate"}) {
    columns.push_back({name + suffix});
  }
  if (csv) columns.push_back({"denial_rate" + suffix});
  Table t{std::move(columns)};
  for (const CellDistribution& c : side) {
    std::vector<Cell> row{count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(c.trials));
    row.push_back(count_cell(c.successes));
    row.push_back(count_cell(c.denials));
    row.push_back(num_cell(c.success_rate));
    if (csv) row.push_back(num_cell(rate(c.denials, c.trials)));
    t.add_row(std::move(row));
  }
  return t;
}

/// The `marginals` section: the JSON array and the CSV's axis rows.
/// Marginals carry only the raw flag: FDR is corrected over the cell
/// family, and mixing the pooled marginal tests into it would change
/// what "the family" means.
Table marginal_delta_table(const std::vector<AxisDelta>& marginals) {
  Table t{{{"axis"},           {"value"},
           {"trials_a"},       {"trials_b"},
           {"successes_a"},    {"successes_b"},
           {"denials_a"},      {"denials_b"},
           {"success_rate_a"}, {"success_rate_b"},
           {"success_delta"},  {"delta_ci95_low"},
           {"delta_ci95_high"}, {"significant"},
           {"denial_delta"},   {"mean_psnr_shift"}}};
  for (const AxisDelta& d : marginals) {
    t.add_row({str_cell(d.axis), str_cell(d.value), count_cell(d.trials_a),
               count_cell(d.trials_b), count_cell(d.successes_a),
               count_cell(d.successes_b), count_cell(d.denials_a),
               count_cell(d.denials_b), num_cell(d.success_rate_a),
               num_cell(d.success_rate_b), num_cell(d.success_delta),
               num_cell(d.success_delta_ci.low),
               num_cell(d.success_delta_ci.high), bool_cell(d.significant),
               num_cell(d.denial_delta), num_cell(d.mean_psnr_shift)});
  }
  return t;
}

}  // namespace

std::string DiffReport::to_csv() const {
  std::vector<std::string> columns = csv_axis_union(*this);
  for (const char* name :
       {"axis", "value", "index_a", "index_b", "trials_a", "trials_b",
        "successes_a", "successes_b", "denials_a", "denials_b",
        "success_rate_a", "success_rate_b", "success_delta", "delta_ci95_low",
        "delta_ci95_high", "significant", "p_value", "p_value_fdr",
        "significant_fdr", "denial_rate_a", "denial_rate_b", "denial_delta",
        "p50_shift", "p90_shift", "p99_shift", "mean_psnr_shift"}) {
    columns.push_back(name);
  }
  return table::flat_csv(columns,
                         {{"cell", cell_delta_table(*this)},
                          {"only_in_a", side_table(only_in_a, "_a")},
                          {"only_in_b", side_table(only_in_b, "_b")},
                          {"axis", marginal_delta_table(marginals)}});
}

std::string DiffReport::to_json() const {
  std::string out = "{\"matched_cells\":" + std::to_string(cells.size());
  out += ",\"significant_cells\":" + std::to_string(significant_cells);
  out += ",\"significant_cells_fdr\":" + std::to_string(significant_cells_fdr);
  out += ",\"cells\":" + cell_delta_table(*this).to_json();
  out += ",\"only_in_a\":" + side_table(only_in_a).to_json();
  out += ",\"only_in_b\":" + side_table(only_in_b).to_json();
  out += ",\"marginals\":" + marginal_delta_table(marginals).to_json();
  out += '}';
  return out;
}

}  // namespace msa::campaign
