// The one strict JSON reader (harness/json.h): error positions and
// field paths, non-printable bytes spelled in hex, json_escape inverted byte for byte, and every JSON
// writer of the toolchain — shard manifest, partial-merge report,
// quarantine report — read back field by field through the reader,
// with strings that exercise every escape rule and raw UTF-8.
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/gridspec.h"
#include "harness/json.h"
#include "harness/shard.h"
#include "harness/supervisor.h"

namespace crp::harness {
namespace {

constexpr json::Reader kDoc{"test doc"};

/// Every escape class json_escape knows plus raw multi-byte UTF-8
/// ("é", "→"), which must pass through verbatim.
const std::string kAwkward =
    "q\"b\\s\nn\x01u\x1f"
    "e\xc3\xa9 a\xe2\x86\x92.csv";

/// The message `action` throws, or "" (a test failure) if it does not.
template <typename Action>
std::string error_of(const Action& action) {
  try {
    action();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a std::invalid_argument";
  return "";
}

std::string rejection(const std::string& text) {
  return error_of([&] { (void)kDoc.parse(text); });
}

TEST(JsonReader, ErrorsCarryDocumentPositionAndFieldPath) {
  EXPECT_EQ(rejection("{\"a\": {\"b\": [1,\n nan]}}").rfind(
                "test doc: line 2, column 2: unexpected character 'n'", 0),
            0u);
  EXPECT_NE(rejection("{\"a\": {\"b\": [1,\n nan]}}").find(
                "(in field \"a.b[1]\")"),
            std::string::npos);
  EXPECT_EQ(rejection("{\"a\": 1, \"a\": 2}"),
            "test doc: line 1, column 10: duplicate field \"a\"");
  EXPECT_EQ(rejection("[1]"),
            "test doc: line 1, column 1: the test doc must be a JSON object");
  EXPECT_NE(rejection("{} x").find("trailing content"), std::string::npos);
  EXPECT_NE(rejection("{\"a\": \"\\u0100\"}").find("beyond one byte"),
            std::string::npos);
  EXPECT_NE(rejection("{\"a\":\f1}").find("line 1, column 6"),
            std::string::npos);
  EXPECT_NE(rejection("{\"a\": \"x\ty\"}").find("unescaped control"),
            std::string::npos);
}

TEST(JsonReader, NonPrintableBytesAreSpelledInHex) {
  // A \v at byte 1 of a manifest and of a grid spec, where a field
  // name's quote belongs: the message quotes it as \x0b, not as a byte
  // that prints as nothing.
  std::istringstream manifest("{\v\"format\": \"crp-shard-manifest-v1\"}");
  EXPECT_EQ(error_of([&] { (void)read_shard_manifest(manifest); }),
            "shard manifest: line 1, column 2: expected '\"', got '\\x0b'");
  EXPECT_EQ(error_of([&] { (void)parse_grid_spec("{\v\"n\": 4}"); }),
            "grid spec: line 1, column 2: expected '\"', got '\\x0b'");
  // The other two places that quote a byte.
  EXPECT_EQ(rejection("\v{}").rfind(
                "test doc: line 1, column 1: unexpected character '\\x0b'",
                0),
            0u);
  EXPECT_EQ(rejection("{\"a\": \"\\\v\"}"),
            "test doc: line 1, column 9: unsupported escape \\\\x0b in "
            "string (in field \"a\")");
  // Printable bytes still quote as themselves.
  EXPECT_EQ(rejection("{\"a\" 1}"),
            "test doc: line 1, column 6: expected ':', got '1'");
}

TEST(JsonReader, SchemaHelpersNameTheField) {
  const json::Value root =
      kDoc.parse("{\"n\": 12, \"x\": 0.5, \"h\": \"0xAb\",\n \"s\": \"v\"}");
  EXPECT_EQ(kDoc.get_uint(kDoc.require(root, "n", "the doc"), "n"), 12u);
  EXPECT_EQ(kDoc.get_finite(*root.find("x"), "x"), 0.5);
  EXPECT_EQ(kDoc.get_hex_u64(*root.find("h"), "h"), 0xabu);
  EXPECT_EQ(kDoc.get_string(*root.find("s"), "s"), "v");
  EXPECT_EQ(root.find("missing"), nullptr);
  EXPECT_EQ(error_of([&] { (void)kDoc.get_uint(*root.find("x"), "x"); }),
            "test doc: line 1, column 16: x must be a plain non-negative "
            "integer, got \"0.5\"");
  EXPECT_EQ(error_of([&] { (void)kDoc.get_hex_u64(*root.find("s"), "s"); }),
            "test doc: line 2, column 7: s must be an \"0x...\" hex string, "
            "got \"v\"");
  EXPECT_EQ(error_of([&] { (void)kDoc.require(root, "z", "the doc"); }),
            "test doc: line 1, column 1: missing field \"z\" of the doc");
  EXPECT_EQ(error_of([&] { kDoc.reject_unknown(root, {"n", "x", "h"}, "it"); }),
            "test doc: line 2, column 2: unknown field \"s\" of it");
  EXPECT_EQ(
      error_of([&] { (void)kDoc.expect_kind(root, json::Kind::kArray, "r"); }),
      "test doc: line 1, column 1: r must be an array");
}

TEST(JsonEscape, ReaderInvertsEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  const json::Value root =
      kDoc.parse("{\"s\": \"" + json_escape(all) + "\"}");
  EXPECT_EQ(kDoc.get_string(*root.find("s"), "s"), all);
}

TEST(JsonWriters, ShardManifestReadsBackEveryField) {
  const ShardManifest manifest{.csv = kAwkward,
                               .engine = "batch",
                               .cd_engine = "simulate",
                               .grid_hash = 0x0123456789abcdefULL,
                               .master_seed = ~std::uint64_t{0},
                               .trials = 6000,
                               .total_cells = 9,
                               .shard_index = 2,
                               .shard_count = 3,
                               .cell_begin = 6,
                               .cell_end = 9,
                               .cell_seeds = {0x1, 0xffffffffffffffffULL, 0}};
  std::ostringstream out;
  write_shard_manifest(out, manifest);
  const json::Value root = kDoc.parse(out.str());
  const auto str = [&](const char* key) {
    return kDoc.get_string(kDoc.require(root, key, "m"), key);
  };
  const auto uint = [&](const char* key) {
    return kDoc.get_uint(kDoc.require(root, key, "m"), key);
  };
  const auto hex = [&](const char* key) {
    return kDoc.get_hex_u64(kDoc.require(root, key, "m"), key);
  };
  EXPECT_EQ(root.members.size(), 13u);
  EXPECT_EQ(str("format"), "crp-shard-manifest-v1");
  EXPECT_EQ(str("csv"), manifest.csv);
  EXPECT_EQ(str("engine"), manifest.engine);
  EXPECT_EQ(str("cd_engine"), manifest.cd_engine);
  EXPECT_EQ(hex("grid_hash"), manifest.grid_hash);
  EXPECT_EQ(hex("master_seed"), manifest.master_seed);
  EXPECT_EQ(uint("trials"), manifest.trials);
  EXPECT_EQ(uint("total_cells"), manifest.total_cells);
  EXPECT_EQ(uint("shard_index"), manifest.shard_index);
  EXPECT_EQ(uint("shard_count"), manifest.shard_count);
  EXPECT_EQ(uint("cell_begin"), manifest.cell_begin);
  EXPECT_EQ(uint("cell_end"), manifest.cell_end);
  std::vector<std::uint64_t> seeds;
  for (const json::Value& seed : kDoc.require(root, "cell_seeds", "m").items) {
    seeds.push_back(kDoc.get_hex_u64(seed, "seed"));
  }
  EXPECT_EQ(seeds, manifest.cell_seeds);

  std::istringstream in(out.str());
  EXPECT_EQ(read_shard_manifest(in).csv, manifest.csv);
}

TEST(JsonWriters, PartialMergeReportReadsBackEveryField) {
  const PartialMergeReport report{.grid_hash = 0xdeadbeefULL,
                                  .total_cells = 40,
                                  .present_cells = 31,
                                  .missing = {{3, 5}, {20, 27}}};
  std::ostringstream out;
  write_partial_merge_report(out, report);
  const json::Value root = kDoc.parse(out.str());
  kDoc.reject_unknown(root,
                      {"format", "grid_hash", "total_cells", "present_cells",
                       "missing_ranges"},
                      "the report");
  EXPECT_EQ(kDoc.get_string(kDoc.require(root, "format", "r"), "format"),
            "crp-partial-merge-v1");
  EXPECT_EQ(kDoc.get_hex_u64(kDoc.require(root, "grid_hash", "r"), "hash"),
            report.grid_hash);
  EXPECT_EQ(kDoc.get_uint(kDoc.require(root, "total_cells", "r"), "total"),
            report.total_cells);
  EXPECT_EQ(kDoc.get_uint(kDoc.require(root, "present_cells", "r"), "p"),
            report.present_cells);
  const json::Value& ranges = kDoc.expect_kind(
      kDoc.require(root, "missing_ranges", "r"), json::Kind::kArray, "m");
  ASSERT_EQ(ranges.items.size(), report.missing.size());
  for (std::size_t i = 0; i < ranges.items.size(); ++i) {
    const json::Value& pair = ranges.items[i];
    ASSERT_EQ(pair.items.size(), 2u);
    EXPECT_EQ(kDoc.get_uint(pair.items[0], "begin"), report.missing[i].begin);
    EXPECT_EQ(kDoc.get_uint(pair.items[1], "end"), report.missing[i].end);
  }
}

TEST(JsonWriters, QuarantineReportReadsBackEveryField) {
  const std::vector<QuarantinedCell> quarantined{
      {.cell_index = 3, .attempts = 2, .reason = kAwkward},
      {.cell_index = 17, .attempts = 5, .reason = "hung past the timeout"}};
  for (const std::size_t count : {std::size_t{0}, quarantined.size()}) {
    SCOPED_TRACE("quarantined cells: " + std::to_string(count));
    const std::span<const QuarantinedCell> cells(quarantined.data(), count);
    std::ostringstream out;
    write_quarantine_report(out, 0xabcULL, 64, cells);
    const json::Value root = kDoc.parse(out.str());
    kDoc.reject_unknown(root,
                        {"format", "grid_hash", "total_cells",
                         "quarantined_cells", "quarantined"},
                        "the report");
    EXPECT_EQ(kDoc.get_string(kDoc.require(root, "format", "r"), "format"),
              "crp-quarantine-v1");
    EXPECT_EQ(kDoc.get_hex_u64(kDoc.require(root, "grid_hash", "r"), "h"),
              0xabcu);
    EXPECT_EQ(kDoc.get_uint(kDoc.require(root, "total_cells", "r"), "t"),
              64u);
    EXPECT_EQ(
        kDoc.get_uint(kDoc.require(root, "quarantined_cells", "r"), "q"),
        count);
    const json::Value& list = kDoc.require(root, "quarantined", "r");
    ASSERT_EQ(list.items.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const json::Value& cell = list.items[i];
      kDoc.reject_unknown(cell, {"cell_index", "attempts", "reason"}, "cell");
      EXPECT_EQ(kDoc.get_uint(kDoc.require(cell, "cell_index", "c"), "i"),
                quarantined[i].cell_index);
      EXPECT_EQ(kDoc.get_uint(kDoc.require(cell, "attempts", "c"), "a"),
                quarantined[i].attempts);
      EXPECT_EQ(kDoc.get_string(kDoc.require(cell, "reason", "c"), "r"),
                quarantined[i].reason);
    }
  }
}

}  // namespace
}  // namespace crp::harness
