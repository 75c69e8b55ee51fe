// Shared emitter-layer tests: value formatting, CSV quoting (including
// the carriage-return regression), JSON escaping, and the Table
// renderers every analysis surface (report, stats, diff) builds on.
#include "campaign/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "attack/scenario.h"
#include "campaign/report.h"

namespace msa::campaign::table {
namespace {

TEST(FormatDouble, RoundTripsAndKeepsIntegralForm) {
  EXPECT_EQ(format_double(60.0), "60");
  EXPECT_EQ(format_double(-3.0), "-3");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(4.0 * 1024 * 1024), "4194304");

  // Non-integral values round-trip exactly through strtod.
  for (const double v : {0.1, 1.0 / 3.0, 99.123456789, 1e-17, 2.5e20}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }

  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");
}

TEST(CsvEscape, QuotesDelimitersAndControlCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(CsvEscape, CarriageReturnTriggersQuoting) {
  // Regression: a bare CR used to pass through unquoted, splitting the
  // row in strict readers (RFC 4180 terminates records on CRLF).
  EXPECT_EQ(csv_escape("denied\rreason"), "\"denied\rreason\"");
  EXPECT_EQ(csv_escape("tail\r\n"), "\"tail\r\n\"");
}

TEST(CsvEscape, CarriageReturnInDenialReasonKeepsReportRowIntact) {
  // The end-to-end shape of the original bug: a denial reason carrying
  // "\r\n" must not add a row to SweepReport CSV.
  CellStats cell;
  cell.index = 0;
  cell.coords = {{"defense", AxisValue::of_string("baseline")},
                 {"model", AxisValue::of_string("m")}};
  cell.trials = 1;
  cell.denials = 1;
  cell.first_denial_reason = "firewall\r\nblocked";
  SweepReport report;
  report.cells.push_back(cell);

  const std::string csv = report.to_csv();
  // Header + one data row. A naive line count would see three: count
  // rows the way a strict CSV reader does, honoring quoted fields.
  std::size_t rows = 0;
  bool in_quotes = false;
  for (const char c : csv) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == '\n' && !in_quotes) ++rows;
  }
  EXPECT_EQ(rows, 2u);
  EXPECT_NE(csv.find("\"firewall\r\nblocked\""), std::string::npos);
}

TEST(JsonEscape, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("nl\ntab\t"), "nl\\ntab\\t");
  EXPECT_EQ(json_escape("cr\r"), "cr\\u000d");
}

TEST(JsonDouble, SentinelsForNonFinite) {
  EXPECT_EQ(json_double(1.5), "1.5");
  EXPECT_EQ(json_double(std::nan("")), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "1e999");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "-1e999");
}

TEST(Cells, PerFormatRenderings) {
  const Cell s = str_cell("a\"b");
  EXPECT_EQ(s.text, "a\"b");
  EXPECT_EQ(s.csv, "a\"b");  // escaped at emit time, not here
  EXPECT_EQ(s.json, "\"a\\\"b\"");

  const Cell fixed3 = num_cell(1.0 / 3.0, 3);
  EXPECT_EQ(fixed3.text, "0.333");
  EXPECT_EQ(std::strtod(fixed3.csv.c_str(), nullptr), 1.0 / 3.0);

  const Cell b = bool_cell(true);
  EXPECT_EQ(b.text, "yes");
  EXPECT_EQ(b.csv, "true");
  EXPECT_EQ(b.json, "true");

  const Cell e = empty_cell();
  EXPECT_EQ(e.csv, "");
  EXPECT_EQ(e.json, "null");
}

Table two_column_fixture() {
  Table t{{{"name", Align::kLeft}, {"value", Align::kRight}}};
  t.add_row({str_cell("alpha"), num_cell(1.5)});
  t.add_row({str_cell("b"), num_cell(42.0)});
  return t;
}

TEST(Table, TextAlignsAndStripsTrailingSpace) {
  const std::string text = two_column_fixture().to_text();
  EXPECT_EQ(text,
            "name   value\n"
            "alpha    1.5\n"
            "b         42\n");
}

TEST(Table, CsvEmitsHeaderAndEscapedRows) {
  Table t{{{"name"}, {"note"}}};
  t.add_row({str_cell("a,b"), str_cell("cr\rhere")});
  EXPECT_EQ(t.to_csv(), "name,note\n\"a,b\",\"cr\rhere\"\n");
}

TEST(Table, JsonEmitsArrayOfObjects) {
  EXPECT_EQ(two_column_fixture().to_json(),
            "[{\"name\":\"alpha\",\"value\":1.5},"
            "{\"name\":\"b\",\"value\":42}]");
  Table empty{{{"x"}}};
  EXPECT_EQ(empty.to_json(), "[]");
}

TEST(Table, RejectsArityMismatchAndZeroColumns) {
  Table t{{{"only"}}};
  EXPECT_THROW(t.add_row({str_cell("a"), str_cell("b")}),
               std::invalid_argument);
  EXPECT_THROW(Table{std::vector<Column>{}}, std::invalid_argument);
}

TEST(Table, RenderingIsDeterministic) {
  const Table t = two_column_fixture();
  EXPECT_EQ(t.to_text(), two_column_fixture().to_text());
  EXPECT_EQ(t.to_csv(), two_column_fixture().to_csv());
  EXPECT_EQ(t.to_json(), two_column_fixture().to_json());
}

TEST(FlatCsv, CellsLandUnderTheirNamedColumns) {
  Table cells{{{"index"}, {"rate"}}};
  cells.add_row({count_cell(3), num_cell(0.25)});
  Table notes{{{"note"}, {"index"}}};  // order differs from the CSV's
  notes.add_row({str_cell("a,b"), count_cell(7)});
  EXPECT_EQ(flat_csv({"index", "note", "rate"},
                     {{"cell", cells}, {"note", notes}}),
            "section,index,note,rate\n"
            "cell,3,,0.25\n"
            "note,7,\"a,b\",\n");
}

TEST(FlatCsv, SectionWithoutRowsAddsNothing) {
  // Its columns need not be in the CSV: an empty section names none.
  const Table unused{{{"not_in_csv"}}};
  Table rows{{{"x"}}};
  rows.add_row({count_cell(1)});
  EXPECT_EQ(flat_csv({"x"}, {{"empty", unused}, {"rows", rows}}),
            "section,x\nrows,1\n");
}

TEST(FlatCsv, RowWithAColumnTheCsvLacksThrows) {
  Table t{{{"x"}, {"y"}}};
  t.add_row({count_cell(1), count_cell(2)});
  EXPECT_THROW((void)flat_csv({"x"}, {{"s", t}}), std::invalid_argument);
}

TEST(FlatCsv, NoSectionsGivesHeaderOnly) {
  EXPECT_EQ(flat_csv({"a", "b"}, {}), "section,a,b\n");
}

TEST(FullSuccessPredicate, SingleSharedDefinition) {
  // The hoisted predicate is the one ScenarioResult uses.
  attack::ScenarioResult r;
  r.model_identified_correctly = true;
  r.pixel_match = 1.0;
  EXPECT_TRUE(r.full_success());
  EXPECT_TRUE(attack::is_full_success(true, 1.0));

  r.pixel_match = attack::kFullSuccessPixelMatch;  // threshold is strict
  EXPECT_FALSE(r.full_success());
  EXPECT_FALSE(attack::is_full_success(true, attack::kFullSuccessPixelMatch));
  EXPECT_FALSE(attack::is_full_success(false, 1.0));
}

}  // namespace
}  // namespace msa::campaign::table
