// Shared table-emission layer for every campaign analysis surface
// (SweepReport CSV/JSON, `stats`, `diff`). One definition of the value
// formats — shortest-round-trip doubles, RFC-4180 CSV quoting, JSON
// escaping — so the emitters cannot drift apart, plus a small Table
// abstraction that renders the same rows as an aligned text table, a
// strict single-header CSV, or a JSON array of objects. All output is
// byte-stable: no locale, no pointers, no timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/axis.h"

namespace msa::campaign::table {

/// Shortest round-trip-exact decimal form (std::to_chars), with "inf" /
/// "-inf" / "nan" spelled out so CSV output agrees byte-for-byte across
/// runs. Integral values keep their plain form ("60", not "6e+01").
[[nodiscard]] std::string format_double(double v);

/// Fixed decimals for human-facing text columns (alignment beats
/// round-tripping there).
[[nodiscard]] std::string fixed(double v, int decimals);

/// RFC-4180 field quoting: the field is wrapped in double quotes (with
/// embedded quotes doubled) when it contains a comma, quote, newline, or
/// carriage return. `\r` is in the trigger set deliberately — a bare CR
/// inside an unquoted field splits the row in most strict readers.
[[nodiscard]] std::string csv_escape(const std::string& s);

/// JSON string-body escaping (caller supplies the surrounding quotes).
[[nodiscard]] std::string json_escape(const std::string& s);

/// JSON numeric token. JSON has no literal for infinity or NaN: NaN
/// becomes null, infinities the overflow sentinels +/-1e999 (documented
/// in README).
[[nodiscard]] std::string json_double(double v);

/// One table cell, pre-rendered per output format. The three forms may
/// legitimately differ: a rate prints with fixed decimals in text but
/// round-trip-exact in CSV, and JSON needs a typed token (quoted string,
/// bare number, true/false, null).
struct Cell {
  std::string text;  ///< text-table rendering (padded on emit)
  std::string csv;   ///< raw CSV field (escaped on emit)
  std::string json;  ///< complete JSON token, already escaped/quoted
};

[[nodiscard]] Cell str_cell(const std::string& s);
[[nodiscard]] Cell count_cell(std::uint64_t n);
/// Round-trip-exact in every format.
[[nodiscard]] Cell num_cell(double v);
/// Fixed `text_decimals` in text, round-trip-exact in CSV/JSON.
[[nodiscard]] Cell num_cell(double v, int text_decimals);
[[nodiscard]] Cell bool_cell(bool b);  ///< text yes/no, CSV/JSON true/false
/// "[low,high]" at 3 decimals — the one rendering of a confidence
/// interval every text table shares (CSV/JSON split the bounds into
/// numeric columns instead).
[[nodiscard]] Cell interval_cell(double low, double high);
/// P-value cell shared by the diff and gate surfaces: fixed 4 decimals
/// in text (a human reads "0.0317"; more digits is noise), round-trip
/// exact in CSV/JSON so thresholds can be re-applied downstream.
[[nodiscard]] Cell pvalue_cell(double p);
/// Blank text/CSV field, JSON null — for columns another section of a
/// flat CSV does not populate.
[[nodiscard]] Cell empty_cell();
/// Axis-value cell shared by the stats and diff emitters: canonical
/// label in text/CSV ("0"/"1" for bools, so cell rows join against
/// marginal `value` fields verbatim), typed token in JSON.
[[nodiscard]] Cell axis_value_cell(const AxisValue& v);
/// Text-table header for an axis column. Text tables have always
/// abbreviated scrubber_Bps to scrub_Bps for width; keeping the mapping
/// keeps pre-refactor text output byte-stable.
[[nodiscard]] std::string axis_text_header(const std::string& axis);

enum class Align : std::uint8_t { kLeft, kRight };

struct Column {
  std::string name;  ///< CSV header field and JSON object key
  Align align = Align::kRight;
};

class Table;

/// One named section of a flat multi-section CSV (see flat_csv).
struct Section {
  std::string name;  ///< the rows' `section` field
  const Table& table;
};

/// Column-typed row collection with three renderers. Rendering is a pure
/// function of (columns, rows): text pads every column to its widest
/// member, CSV emits one header plus one line per row, JSON emits an
/// array of one object per row keyed by column name.
class Table {
 public:
  explicit Table(std::vector<Column> columns);

  /// Throws std::invalid_argument when the row arity mismatches the
  /// column set (a programming error in the caller).
  void add_row(std::vector<Cell> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Aligned fixed-width table, two-space gutters, no trailing spaces.
  [[nodiscard]] std::string to_text() const;
  /// Strict CSV: header row, then every row with exactly one field per
  /// column, quoted per csv_escape.
  [[nodiscard]] std::string to_csv() const;
  /// JSON array of objects ("[]" when empty) — callers wrap it in their
  /// own envelope.
  [[nodiscard]] std::string to_json() const;

 private:
  friend std::string flat_csv(const std::vector<std::string>& columns,
                              const std::vector<Section>& sections);

  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Several tables as one strict CSV: a leading `section` column, then
/// `columns`. Each row's cells land under the column of the same name
/// and every other field stays empty, so a CSV row is its section's JSON
/// row under the same names. A section with no rows adds nothing, even
/// when its columns are not in `columns`; a row holding a column that
/// `columns` lacks throws std::invalid_argument.
[[nodiscard]] std::string flat_csv(const std::vector<std::string>& columns,
                                   const std::vector<Section>& sections);

}  // namespace msa::campaign::table
