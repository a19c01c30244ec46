// Pins the bench programs' one JSON writer (harness/bench_json.h): string
// escaping, the number rule, key order, nested layout, the figure
// params/tables shape and the gated benches' epilogue.  CI gates the
// written documents key by key (tools/bench_compare.py) and the eval
// pipeline re-renders them byte for byte, so any drift here is a format
// change.

#include "harness/bench_json.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace prtree {
namespace harness {
namespace {

std::string Dump(const BenchJson& v) { return v.ToString(); }

TEST(BenchJsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(Dump("plain"), "\"plain\"\n");
  EXPECT_EQ(Dump("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"\n");
  EXPECT_EQ(Dump(std::string("x\x01y\x1f\r", 5)),
            "\"x\\u0001y\\u001f\\u000d\"\n");
  // Bytes >= 0x20 (UTF-8 included) pass through unchanged.
  EXPECT_EQ(Dump("§3.3 ~"), "\"§3.3 ~\"\n");
}

TEST(BenchJsonTest, IntegralValuesPrintExactly) {
  EXPECT_EQ(Dump(0), "0\n");
  EXPECT_EQ(Dump(-3), "-3\n");
  EXPECT_EQ(Dump(size_t{3812}), "3812\n");
  EXPECT_EQ(Dump(uint64_t{123456789012345}), "123456789012345\n");
  EXPECT_EQ(Dump(8999999999999999.0), "8999999999999999\n");
  EXPECT_EQ(Dump(2.0), "2\n");
  // From 9e15 on, integers print through %.10g like any other double.
  EXPECT_EQ(Dump(9.0e15), "9e+15\n");
}

TEST(BenchJsonTest, OtherDoublesPrintAsTenSignificantDigits) {
  EXPECT_EQ(Dump(0.0625), "0.0625\n");
  EXPECT_EQ(Dump(1.0 / 3.0), "0.3333333333\n");
  EXPECT_EQ(Dump(-2.5e-7), "-2.5e-07\n");
  EXPECT_EQ(Dump(12345.678901234), "12345.6789\n");
}

TEST(BenchJsonTest, NanAndInfinityPrintAsNull) {
  EXPECT_EQ(Dump(std::numeric_limits<double>::quiet_NaN()), "null\n");
  EXPECT_EQ(Dump(std::numeric_limits<double>::infinity()), "null\n");
  EXPECT_EQ(Dump(-std::numeric_limits<double>::infinity()), "null\n");
  EXPECT_EQ(Dump(BenchJson()), "null\n");
  EXPECT_EQ(Dump(true), "true\n");
  EXPECT_EQ(Dump(false), "false\n");
}

TEST(BenchJsonTest, KeysKeepInsertionOrder) {
  BenchJson doc;
  doc["zeta"] = 1;
  doc["alpha"] = 2;
  doc["mid"] = 3;
  doc["alpha"] = "replaced";  // keeps its place
  EXPECT_EQ(Dump(doc), "{\"zeta\": 1, \"alpha\": \"replaced\", \"mid\": 3}\n");
}

TEST(BenchJsonTest, NestedObjectsAndArrays) {
  BenchJson doc = BenchJson::Document("demo");
  doc["n"] = 3;
  doc["flags"] = BenchJson::Array();
  doc["empty"] = BenchJson::Object();
  doc["mix"]["a"] = 1;
  doc["mix"]["b"] = true;
  BenchJson& legs = doc["legs"];
  BenchJson& leg = legs.Push(BenchJson::Object());
  legs.Push(BenchJson());
  // References stay valid while siblings are added.
  leg["device"] = "file";
  leg["points"].Push(BenchJson::Object())["x"] = 1.5;
  doc["list"].Push(1);
  doc["list"].Push("two");
  EXPECT_EQ(Dump(doc),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"n\": 3,\n"
            "  \"flags\": [],\n"
            "  \"empty\": {},\n"
            "  \"mix\": {\"a\": 1, \"b\": true},\n"
            "  \"legs\": [\n"
            "    {\n"
            "      \"device\": \"file\",\n"
            "      \"points\": [\n"
            "        {\"x\": 1.5}\n"
            "      ]\n"
            "    },\n"
            "    null\n"
            "  ],\n"
            "  \"list\": [1, \"two\"]\n"
            "}\n");

  BenchJson copy = doc;
  EXPECT_EQ(copy, doc);
  copy["legs"].Push(2);
  EXPECT_FALSE(copy == doc);
}

TEST(BenchJsonTest, FigureLayoutIsParamsThenTables) {
  FigureJson fig("fig_demo");
  fig.Param("n", 100);
  FigureJson::Table* cost = fig.AddTable("cost", {"x", "avg_results"});
  fig.AddTable("none", {"a"});
  fig.Param("device", "memory");
  cost->AddRow({0.25, 812});
  cost->AddRow({"H", true});
  EXPECT_EQ(Dump(fig.doc()),
            "{\n"
            "  \"bench\": \"fig_demo\",\n"
            "  \"params\": {\"n\": 100, \"device\": \"memory\"},\n"
            "  \"tables\": [\n"
            "    {\n"
            "      \"name\": \"cost\",\n"
            "      \"columns\": [\"x\", \"avg_results\"],\n"
            "      \"rows\": [\n"
            "        [0.25, 812],\n"
            "        [\"H\", true]\n"
            "      ]\n"
            "    },\n"
            "    {\n"
            "      \"name\": \"none\",\n"
            "      \"columns\": [\"a\"],\n"
            "      \"rows\": []\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchJsonTest, WriteGatedEndsWithDeterministicAndFailsOnCheck) {
  const std::string path = ::testing::TempDir() + "bench_json_test." +
                           std::to_string(getpid()) + ".json";
  BenchJson doc = BenchJson::Document("gated");
  doc["n"] = 1;
  EXPECT_EQ(WriteGated(&doc, path, /*ok=*/true, "demo check"), 0);
  EXPECT_EQ(ReadFile(path),
            "{\"bench\": \"gated\", \"n\": 1, \"deterministic\": true}\n");

  doc["n"] = 2;
  EXPECT_EQ(WriteGated(&doc, path, /*ok=*/false, "demo check"), 1);
  EXPECT_EQ(ReadFile(path),
            "{\"bench\": \"gated\", \"n\": 2, \"deterministic\": false}\n");
  std::remove(path.c_str());

  EXPECT_EQ(WriteGated(&doc, "/nonexistent-dir/x.json", true, "demo"), 1);
  EXPECT_TRUE(doc.WriteFile(""));  // no path: no JSON, no error
}

}  // namespace
}  // namespace harness
}  // namespace prtree
