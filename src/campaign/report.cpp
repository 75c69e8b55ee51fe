#include "campaign/report.h"

#include "campaign/table.h"

namespace msa::campaign {

namespace {

/// One row per cell, columns in the sweep's axis order: the one table
/// both to_csv() and to_json() render.
table::Table cell_table(const std::vector<CellStats>& cells) {
  // An empty report falls back to the legacy four axes so the header
  // shape is stable for header-only output.
  std::vector<table::Column> columns{{"index"}};
  if (cells.empty()) {
    for (const std::string& axis : legacy_axis_names()) {
      columns.push_back({axis});
    }
  } else {
    for (const AxisCoordinate& c : cells.front().coords) {
      columns.push_back({c.axis});
    }
  }
  for (const char* name :
       {"trials", "full_successes", "model_identified", "denials",
        "success_rate", "mean_pixel_match", "mean_psnr_db",
        "mean_descriptor_pixel_match", "first_denial_reason"}) {
    columns.push_back({name});
  }
  table::Table t{std::move(columns)};
  for (const CellStats& c : cells) {
    std::vector<table::Cell> row{table::count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(table::axis_value_cell(coord.value));
    }
    row.push_back(table::count_cell(c.trials));
    row.push_back(table::count_cell(c.full_successes));
    row.push_back(table::count_cell(c.model_identified));
    row.push_back(table::count_cell(c.denials));
    row.push_back(table::num_cell(c.success_rate()));
    row.push_back(table::num_cell(c.mean_pixel_match));
    row.push_back(table::num_cell(c.mean_psnr_db));
    row.push_back(table::num_cell(c.mean_descriptor_pixel_match));
    row.push_back(table::str_cell(c.first_denial_reason));
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace

void CellStats::accumulate(const attack::ScenarioResult& result) {
  ++trials;
  if (result.full_success()) ++full_successes;
  if (result.model_identified_correctly) ++model_identified;
  if (result.denied) {
    ++denials;
    if (first_denial_reason.empty()) first_denial_reason = result.denial_reason;
  }
  mean_pixel_match += result.pixel_match;
  mean_psnr_db += result.psnr;
  mean_descriptor_pixel_match += result.descriptor_pixel_match;
}

void CellStats::finalize() {
  if (trials == 0) return;
  const auto n = static_cast<double>(trials);
  mean_pixel_match /= n;
  mean_psnr_db /= n;
  mean_descriptor_pixel_match /= n;
}

std::size_t SweepReport::total_trials() const noexcept {
  std::size_t n = 0;
  for (const auto& c : cells) n += c.trials;
  return n;
}

std::size_t SweepReport::total_full_successes() const noexcept {
  std::size_t n = 0;
  for (const auto& c : cells) n += c.full_successes;
  return n;
}

std::size_t SweepReport::total_denials() const noexcept {
  std::size_t n = 0;
  for (const auto& c : cells) n += c.denials;
  return n;
}

std::string SweepReport::to_csv() const { return cell_table(cells).to_csv(); }

std::string SweepReport::to_json() const {
  std::string out = "{\"cells\":" + cell_table(cells).to_json();
  out += ",\"totals\":{\"trials\":" + std::to_string(total_trials());
  out += ",\"full_successes\":" + std::to_string(total_full_successes());
  out += ",\"denials\":" + std::to_string(total_denials());
  out += "}}";
  return out;
}

}  // namespace msa::campaign
