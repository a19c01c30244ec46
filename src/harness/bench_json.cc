#include "harness/bench_json.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.h"

namespace prtree {
namespace harness {

namespace {

// Appends `s` as a JSON string literal: quoted, with quotes, backslashes
// and control characters escaped.  Every quoted string goes through here
// and is built by appending: GCC 12 misreads `"\"" + str + "\""` as an
// overlapping memcpy and warns (-Wrestrict).
void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendCell(std::string* out, const BenchJson::Cell& cell) {
  switch (cell.kind) {
    case BenchJson::Cell::Kind::kBool:
      out->append(cell.flag ? "true" : "false");
      return;
    case BenchJson::Cell::Kind::kString:
      AppendQuoted(out, cell.str);
      return;
    case BenchJson::Cell::Kind::kNumber: {
      char buf[64];
      // Counters print exactly; measured doubles keep 10 significant
      // digits, enough that re-rendering is byte-stable run to run for
      // any deterministic quantity.
      if (std::isfinite(cell.num) && cell.num == std::floor(cell.num) &&
          std::fabs(cell.num) < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(cell.num));
      } else if (std::isfinite(cell.num)) {
        std::snprintf(buf, sizeof(buf), "%.10g", cell.num);
      } else {
        // JSON has no NaN/Inf; null keeps the document parseable.
        std::snprintf(buf, sizeof(buf), "null");
      }
      out->append(buf);
      return;
    }
  }
  out->append("null");
}

}  // namespace

void BenchJson::Table::AddRow(std::vector<Cell> cells) {
  PRTREE_CHECK(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

BenchJson::BenchJson(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchJson::Param(const std::string& key, Cell value) {
  params_.emplace_back(key, std::move(value));
}

BenchJson::Table* BenchJson::AddTable(std::string name,
                                      std::vector<std::string> columns) {
  auto table = std::make_unique<Table>();
  table->name_ = std::move(name);
  table->columns_ = std::move(columns);
  tables_.push_back(std::move(table));
  return tables_.back().get();
}

std::string BenchJson::ToString() const {
  std::string json = "{\n  \"bench\": ";
  AppendQuoted(&json, bench_name_);
  json += ",\n  \"params\": {";
  for (size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) json += ", ";
    AppendQuoted(&json, params_[i].first);
    json += ": ";
    AppendCell(&json, params_[i].second);
  }
  json += "},\n";
  json += "  \"tables\": [\n";
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = *tables_[t];
    json += "    {\"name\": ";
    AppendQuoted(&json, table.name_);
    json += ",\n     \"columns\": [";
    for (size_t c = 0; c < table.columns_.size(); ++c) {
      if (c > 0) json += ", ";
      AppendQuoted(&json, table.columns_[c]);
    }
    json += "],\n";
    json += "     \"rows\": [\n";
    for (size_t r = 0; r < table.rows_.size(); ++r) {
      json += "       [";
      for (size_t c = 0; c < table.rows_[r].size(); ++c) {
        if (c > 0) json += ", ";
        AppendCell(&json, table.rows_[r][c]);
      }
      json += r + 1 < table.rows_.size() ? "],\n" : "]\n";
    }
    json += "     ]}";
    json += t + 1 < tables_.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

bool BenchJson::WriteFile(const std::string& path) const {
  if (path.empty()) return true;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::string json = ToString();
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace harness
}  // namespace prtree
