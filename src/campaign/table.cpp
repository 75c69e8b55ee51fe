#include "campaign/table.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace msa::campaign::table {

std::string format_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // Magnitude check first: casting |v| >= 2^63 to long long is UB.
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    char ibuf[32];
    const auto res =
        std::to_chars(ibuf, ibuf + sizeof ibuf, static_cast<long long>(v));
    return std::string(ibuf, res.ptr);
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string fixed(double v, int decimals) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  return format_double(v);
}

Cell str_cell(const std::string& s) {
  return {s, s, '"' + json_escape(s) + '"'};
}

Cell count_cell(std::uint64_t n) {
  const std::string s = std::to_string(n);
  return {s, s, s};
}

Cell num_cell(double v) {
  const std::string exact = format_double(v);
  return {exact, exact, json_double(v)};
}

Cell num_cell(double v, int text_decimals) {
  return {fixed(v, text_decimals), format_double(v), json_double(v)};
}

Cell bool_cell(bool b) {
  return {b ? "yes" : "no", b ? "true" : "false", b ? "true" : "false"};
}

Cell interval_cell(double low, double high) {
  std::string s = "[";
  s += fixed(low, 3);
  s += ',';
  s += fixed(high, 3);
  s += ']';
  return str_cell(s);
}

Cell pvalue_cell(double p) { return num_cell(p, 4); }

Cell empty_cell() { return {"", "", "null"}; }

Cell axis_value_cell(const AxisValue& v) {
  switch (v.kind) {
    case AxisKind::kString:
    case AxisKind::kEnum:
      return str_cell(v.str);
    case AxisKind::kDouble:
      return num_cell(v.num);
    case AxisKind::kBool:
      return Cell{v.flag ? "1" : "0", v.flag ? "1" : "0",
                  v.flag ? "true" : "false"};
  }
  return empty_cell();
}

std::string axis_text_header(const std::string& axis) {
  return axis == "scrubber_Bps" ? "scrub_Bps" : axis;
}

Table::Table(std::vector<Column> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("table: a table needs at least one column");
  }
}

void Table::add_row(std::vector<Cell> row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("table: row has " + std::to_string(row.size()) +
                                " cell(s), table has " +
                                std::to_string(columns_.size()) + " column(s)");
  }
  rows_.push_back(std::move(row));
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].name.size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].text.size());
    }
  }
  std::string out;
  auto emit_line = [&](auto&& cell_text) {
    std::string line;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) line += "  ";
      const std::string& s = cell_text(c);
      const std::size_t fill = widths[c] - s.size();
      if (columns_[c].align == Align::kRight) line.append(fill, ' ');
      line += s;
      if (columns_[c].align == Align::kLeft) line.append(fill, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line;
    out += '\n';
  };
  emit_line([&](std::size_t c) -> const std::string& {
    return columns_[c].name;
  });
  for (const auto& row : rows_) {
    emit_line([&](std::size_t c) -> const std::string& { return row[c].text; });
  }
  return out;
}

std::string Table::to_csv() const {
  std::string out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out += ',';
    out += csv_escape(columns_[c].name);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += ',';
      out += csv_escape(row[c].csv);
    }
    out += '\n';
  }
  return out;
}

std::string Table::to_json() const {
  std::string out = "[";
  bool first_row = true;
  for (const auto& row : rows_) {
    if (!first_row) out += ',';
    first_row = false;
    out += '{';
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += ',';
      out += '"' + json_escape(columns_[c].name) + "\":" + row[c].json;
    }
    out += '}';
  }
  out += ']';
  return out;
}

std::string flat_csv(const std::vector<std::string>& columns,
                     const std::vector<Section>& sections) {
  std::string out = "section";
  for (const std::string& name : columns) {
    out += ',';
    out += csv_escape(name);
  }
  out += '\n';
  std::vector<const Cell*> fields;
  for (const Section& section : sections) {
    const Table& t = section.table;
    if (t.rows_.empty()) continue;
    std::vector<std::size_t> slot;  // CSV position of each table column
    for (const Column& column : t.columns_) {
      const auto it = std::find(columns.begin(), columns.end(), column.name);
      if (it == columns.end()) {
        throw std::invalid_argument("table: section '" + section.name +
                                    "' has column '" + column.name +
                                    "', the CSV does not");
      }
      slot.push_back(static_cast<std::size_t>(it - columns.begin()));
    }
    for (const auto& row : t.rows_) {
      fields.assign(columns.size(), nullptr);
      for (std::size_t c = 0; c < row.size(); ++c) fields[slot[c]] = &row[c];
      out += csv_escape(section.name);
      for (const Cell* field : fields) {
        out += ',';
        if (field != nullptr) out += csv_escape(field->csv);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace msa::campaign::table
