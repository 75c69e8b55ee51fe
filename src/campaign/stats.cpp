#include "campaign/stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "attack/scenario.h"
#include "campaign/table.h"

namespace msa::campaign {

namespace {

using table::Align;
using table::Cell;
using table::Column;
using table::Table;
using table::count_cell;
using table::num_cell;
using table::str_cell;

bool trial_full_success(const persist::TrialRecord& t) {
  return attack::is_full_success(t.model_identified, t.pixel_match);
}

struct MarginalAccumulator {
  std::size_t trials = 0;
  std::size_t successes = 0;
  std::size_t denials = 0;
  double psnr_sum = 0.0;
  std::size_t order = 0;  ///< first-appearance rank, for stable output
};

}  // namespace

WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    throw std::invalid_argument("stats: percentile of an empty sample");
  }
  if (q <= 0.0) return sorted.front();
  if (q >= 100.0) return sorted.back();
  // Nearest-rank: the smallest value with at least q% of the sample at
  // or below it.
  const double n = static_cast<double>(sorted.size());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

StatsReport analyze_sweep(const persist::SweepData& data) {
  StatsReport report;

  // Trials grouped per completed cell; the rest are orphans.
  std::map<std::uint64_t, std::vector<const persist::TrialRecord*>> by_cell;
  std::map<std::uint64_t, const CellStats*> cells;
  for (const CellStats& cell : data.cells) cells.emplace(cell.index, &cell);
  for (const persist::TrialRecord& trial : data.trials) {
    if (cells.contains(trial.cell_index)) {
      by_cell[trial.cell_index].push_back(&trial);
      ++report.trials_analyzed;
    } else {
      ++report.orphan_trials;
    }
  }

  std::map<std::pair<std::string, std::string>, MarginalAccumulator> marginals;
  auto marginal = [&](const std::string& axis,
                      const std::string& value) -> MarginalAccumulator& {
    const auto [it, inserted] =
        marginals.try_emplace({axis, value}, MarginalAccumulator{});
    if (inserted) it->second.order = marginals.size() - 1;
    return it->second;
  };
  std::vector<std::string> axis_order;  // first-appearance axis order

  report.cells.reserve(data.cells.size());
  for (const CellStats& cell : data.cells) {
    const auto it = by_cell.find(cell.index);
    if (it == by_cell.end()) {
      throw std::runtime_error(
          "stats: completed cell " + std::to_string(cell.index) +
          " has no trial records (incompatible or hand-edited store)");
    }
    const std::vector<const persist::TrialRecord*>& trials = it->second;

    CellDistribution dist;
    dist.index = cell.index;
    dist.coords = cell.coords;
    dist.trials = trials.size();

    std::vector<double> psnrs;
    psnrs.reserve(trials.size());
    double psnr_sum = 0.0;
    for (const persist::TrialRecord* t : trials) {
      if (trial_full_success(*t)) ++dist.successes;
      if (t->denied) ++dist.denials;
      psnrs.push_back(t->psnr);
      psnr_sum += t->psnr;
    }
    std::sort(psnrs.begin(), psnrs.end());
    dist.p50_psnr = percentile_sorted(psnrs, 50.0);
    dist.p90_psnr = percentile_sorted(psnrs, 90.0);
    dist.p99_psnr = percentile_sorted(psnrs, 99.0);
    dist.success_rate =
        static_cast<double>(dist.successes) / static_cast<double>(dist.trials);
    dist.success_ci = wilson_interval(dist.successes, dist.trials);

    for (const AxisCoordinate& coord : cell.coords) {
      if (std::find(axis_order.begin(), axis_order.end(), coord.axis) ==
          axis_order.end()) {
        axis_order.push_back(coord.axis);
      }
      MarginalAccumulator& acc = marginal(coord.axis, coord.value.label());
      acc.trials += dist.trials;
      acc.successes += dist.successes;
      acc.denials += dist.denials;
      acc.psnr_sum += psnr_sum;
    }

    report.cells.push_back(std::move(dist));
  }

  // Axis blocks in schema order (first appearance across cells — every
  // cell of one sweep shares the schema); values by first appearance
  // (== grid order, since cells ascend by index).
  for (const std::string& axis : axis_order) {
    std::vector<
        std::pair<std::size_t, std::pair<std::string, MarginalAccumulator>>>
        entries;
    for (const auto& [key, acc] : marginals) {
      if (key.first != axis) continue;
      entries.push_back({acc.order, {key.second, acc}});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [order, entry] : entries) {
      const auto& [value, acc] = entry;
      AxisMarginal m;
      m.axis = axis;
      m.value = value;
      m.trials = acc.trials;
      m.successes = acc.successes;
      m.denials = acc.denials;
      m.success_rate = acc.trials == 0
                           ? 0.0
                           : static_cast<double>(acc.successes) /
                                 static_cast<double>(acc.trials);
      m.success_ci = wilson_interval(acc.successes, acc.trials);
      m.mean_psnr = acc.trials == 0
                        ? 0.0
                        : acc.psnr_sum / static_cast<double>(acc.trials);
      report.marginals.push_back(std::move(m));
    }
  }

  return report;
}

std::vector<std::string> axis_columns(
    const std::vector<CellDistribution>& cells) {
  if (cells.empty()) return legacy_axis_names();
  std::vector<std::string> names;
  names.reserve(cells.front().coords.size());
  for (const AxisCoordinate& c : cells.front().coords) names.push_back(c.axis);
  return names;
}

namespace {

/// Text tables combine the CI bounds into one "[low,high]" column; the
/// CSV/JSON emitters split them so consumers get plain numbers.
Cell ci_cell(const WilsonInterval& ci) {
  return table::interval_cell(ci.low, ci.high);
}

using table::axis_text_header;
using table::axis_value_cell;

}  // namespace

std::string StatsReport::to_text() const {
  std::string out;
  out += "== per-cell distributions (" + std::to_string(cells.size()) +
         " cells, " + std::to_string(trials_analyzed) + " trials";
  if (orphan_trials > 0) {
    out += ", " + std::to_string(orphan_trials) + " orphan trials excluded";
  }
  out += ") ==\n";
  const std::vector<std::string> axes = axis_columns(cells);
  std::vector<Column> cell_columns{{"index", Align::kLeft}};
  for (const std::string& axis : axes) {
    // String-valued axes read better left-aligned, numeric ones right.
    const AxisValue* v =
        cells.empty() ? nullptr : find_coord(cells.front().coords, axis);
    const bool textual = v != nullptr && (v->kind == AxisKind::kString ||
                                          v->kind == AxisKind::kEnum);
    cell_columns.push_back(
        {axis_text_header(axis), textual ? Align::kLeft : Align::kRight});
  }
  for (const char* name : {"trials", "success", "ci95", "denials", "p50_psnr",
                           "p90_psnr", "p99_psnr"}) {
    cell_columns.push_back({name, Align::kRight});
  }
  Table cell_table{std::move(cell_columns)};
  for (const CellDistribution& c : cells) {
    std::vector<Cell> row{count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(c.trials));
    row.push_back(num_cell(c.success_rate, 3));
    row.push_back(ci_cell(c.success_ci));
    row.push_back(count_cell(c.denials));
    row.push_back(num_cell(c.p50_psnr, 2));
    row.push_back(num_cell(c.p90_psnr, 2));
    row.push_back(num_cell(c.p99_psnr, 2));
    cell_table.add_row(std::move(row));
  }
  out += cell_table.to_text();

  out += "\n== per-axis marginals ==\n";
  Table marginal_table{{{"axis", Align::kLeft},
                        {"value", Align::kLeft},
                        {"trials", Align::kRight},
                        {"success", Align::kRight},
                        {"ci95", Align::kRight},
                        {"denials", Align::kRight},
                        {"mean_psnr", Align::kRight}}};
  for (const AxisMarginal& m : marginals) {
    marginal_table.add_row({str_cell(m.axis), str_cell(m.value),
                            count_cell(m.trials), num_cell(m.success_rate, 3),
                            ci_cell(m.success_ci), count_cell(m.denials),
                            num_cell(m.mean_psnr, 2)});
  }
  out += marginal_table.to_text();
  return out;
}

namespace {

/// The `cells` section: the JSON array and the CSV's cell rows.
Table cell_table(const std::vector<CellDistribution>& cells) {
  std::vector<Column> columns{{"index"}};
  for (const std::string& axis : axis_columns(cells)) columns.push_back({axis});
  for (const char* name :
       {"trials", "successes", "denials", "success_rate", "ci95_low",
        "ci95_high", "p50_psnr", "p90_psnr", "p99_psnr"}) {
    columns.push_back({name});
  }
  Table t{std::move(columns)};
  for (const CellDistribution& c : cells) {
    std::vector<Cell> row{count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(c.trials));
    row.push_back(count_cell(c.successes));
    row.push_back(count_cell(c.denials));
    row.push_back(num_cell(c.success_rate));
    row.push_back(num_cell(c.success_ci.low));
    row.push_back(num_cell(c.success_ci.high));
    row.push_back(num_cell(c.p50_psnr));
    row.push_back(num_cell(c.p90_psnr));
    row.push_back(num_cell(c.p99_psnr));
    t.add_row(std::move(row));
  }
  return t;
}

/// The `marginals` section: the JSON array and the CSV's marginal rows.
Table marginal_table(const std::vector<AxisMarginal>& marginals) {
  Table t{{{"axis"},         {"value"},    {"trials"},
           {"successes"},    {"denials"},  {"success_rate"},
           {"ci95_low"},     {"ci95_high"}, {"mean_psnr"}}};
  for (const AxisMarginal& m : marginals) {
    t.add_row({str_cell(m.axis), str_cell(m.value), count_cell(m.trials),
               count_cell(m.successes), count_cell(m.denials),
               num_cell(m.success_rate), num_cell(m.success_ci.low),
               num_cell(m.success_ci.high), num_cell(m.mean_psnr)});
  }
  return t;
}

}  // namespace

std::string StatsReport::to_csv() const {
  std::vector<std::string> columns{"index"};
  for (const std::string& axis : axis_columns(cells)) columns.push_back(axis);
  for (const char* name :
       {"axis", "value", "trials", "successes", "denials", "success_rate",
        "ci95_low", "ci95_high", "p50_psnr", "p90_psnr", "p99_psnr",
        "mean_psnr"}) {
    columns.push_back(name);
  }
  return table::flat_csv(columns, {{"cell", cell_table(cells)},
                                   {"marginal", marginal_table(marginals)}});
}

std::string StatsReport::to_json() const {
  std::string out = "{\"trials_analyzed\":" + std::to_string(trials_analyzed);
  out += ",\"orphan_trials\":" + std::to_string(orphan_trials);
  out += ",\"cells\":" + cell_table(cells).to_json();
  out += ",\"marginals\":" + marginal_table(marginals).to_json();
  out += '}';
  return out;
}

}  // namespace msa::campaign
