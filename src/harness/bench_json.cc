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

void AppendNumber(std::string* out, double v) {
  char buf[64];
  // Counters print exactly; measured doubles keep 10 significant digits,
  // enough that re-rendering is byte-stable run to run for any
  // deterministic quantity.
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  } else {
    // JSON has no NaN/Inf; null keeps the document parseable.
    std::snprintf(buf, sizeof(buf), "null");
  }
  out->append(buf);
}

}  // namespace

BenchJson BenchJson::Object() {
  BenchJson v;
  v.kind_ = Kind::kObject;
  return v;
}

BenchJson BenchJson::Array() {
  BenchJson v;
  v.kind_ = Kind::kArray;
  return v;
}

BenchJson BenchJson::Document(std::string bench_name) {
  BenchJson doc;
  doc["bench"] = std::move(bench_name);
  return doc;
}

BenchJson& BenchJson::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  PRTREE_CHECK(kind_ == Kind::kObject);
  for (auto& [k, v] : children_) {
    if (k == key) return v;
  }
  return children_.emplace_back(key, BenchJson()).second;
}

BenchJson& BenchJson::Push(BenchJson value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  PRTREE_CHECK(kind_ == Kind::kArray);
  return children_.emplace_back(std::string(), std::move(value)).second;
}

void BenchJson::Append(std::string* out, int indent) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kNumber:
      AppendNumber(out, num_);
      return;
    case Kind::kBool:
      out->append(flag_ ? "true" : "false");
      return;
    case Kind::kString:
      AppendQuoted(out, str_);
      return;
    case Kind::kObject:
    case Kind::kArray:
      break;
  }
  const bool object = kind_ == Kind::kObject;
  bool flat = true;
  for (const auto& child : children_) {
    const Kind k = child.second.kind_;
    if (k == Kind::kObject || k == Kind::kArray) flat = false;
  }
  std::string pad;  // before each member: nothing, or a newline + indent
  if (!flat) pad.append("\n").append(indent + 2, ' ');
  out->push_back(object ? '{' : '[');
  bool first = true;
  for (const auto& [key, value] : children_) {
    if (!first) out->append(flat ? ", " : ",");
    first = false;
    out->append(pad);
    if (object) {
      AppendQuoted(out, key);
      out->append(": ");
    }
    value.Append(out, indent + 2);
  }
  if (!flat && !children_.empty()) {
    out->push_back('\n');
    out->append(indent, ' ');
  }
  out->push_back(object ? '}' : ']');
}

std::string BenchJson::ToString() const {
  std::string json;
  Append(&json, 0);
  json.push_back('\n');
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

int WriteGated(BenchJson* doc, const std::string& path, bool ok,
               const char* check) {
  (*doc)["deterministic"] = ok;
  if (!doc->WriteFile(path)) return 1;
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", check);
    return 1;
  }
  return 0;
}

void FigureJson::Table::AddRow(std::vector<BenchJson> cells) {
  PRTREE_CHECK(cells.size() == width_);
  BenchJson& row = rows_->Push(BenchJson::Array());
  for (BenchJson& cell : cells) row.Push(std::move(cell));
}

FigureJson::FigureJson(std::string bench_name)
    : doc_(BenchJson::Document(std::move(bench_name))) {
  doc_["params"] = BenchJson::Object();
  doc_["tables"] = BenchJson::Array();
}

void FigureJson::Param(const std::string& key, BenchJson value) {
  doc_["params"][key] = std::move(value);
}

FigureJson::Table* FigureJson::AddTable(std::string name,
                                        std::vector<std::string> columns) {
  BenchJson& table = doc_["tables"].Push(BenchJson::Object());
  table["name"] = std::move(name);
  BenchJson& cols = table["columns"] = BenchJson::Array();
  for (std::string& c : columns) cols.Push(std::move(c));
  Table& handle = tables_.emplace_back();
  handle.rows_ = &(table["rows"] = BenchJson::Array());
  handle.width_ = columns.size();
  return &handle;
}

}  // namespace harness
}  // namespace prtree
