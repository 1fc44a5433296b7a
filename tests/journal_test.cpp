// Byte goldens for every framed piece of the two journal formats
// (harness/journal.h): the checkpoint header and `cell` record
// (harness/checkpoint.h), and the supervisor header, `quarantine` and
// `bisect` records (harness/supervisor.h). Round-trip tests cannot see
// a change that the writer and the reader make together; these pin
// the bytes already on disk, so journals written by an older build
// keep resuming. The goldens were captured from the build before the
// framing moved into harness/journal, and the test uses only the
// format_* functions both builds have.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "harness/checkpoint.h"
#include "harness/supervisor.h"

namespace crp::harness {
namespace {

TEST(JournalGolden, CheckpointHeader) {
  ShardManifest identity;
  identity.engine = "batch";
  identity.cd_engine = "history-tree";
  identity.grid_hash = 0xdeadbeefcafef00dULL;
  identity.master_seed = 0x0123456789abcdefULL;  // leading zero nibble
  identity.trials = 6000;
  identity.total_cells = 9;
  identity.cell_begin = 3;
  identity.cell_end = 7;
  EXPECT_EQ(format_checkpoint_header(identity, "algorithm,sizes,cell_seed"),
            "crp-checkpoint-journal-v1 0xdeadbeefcafef00d 0x123456789abcdef "
            "6000 9 3 7 batch history-tree 25 0xe1de039b853b691a\n"
            "algorithm,sizes,cell_seed\n"
            ".\n");
}

TEST(JournalGolden, CellRecordWithEmbeddedNewlineAndQuotes) {
  const CheckpointRecord record{
      .cell_index = 4,
      .cell_seed = 0xa0b1c2d3e4f5ULL,
      .row = "\"odd\nname, \"\"quoted\"\"\",x,1,2,3"};
  EXPECT_EQ(format_checkpoint_record(record),
            "cell 4 0xa0b1c2d3e4f5 30 0xdaabe4e0c8c78748\n"
            "\"odd\n"
            "name, \"\"quoted\"\"\",x,1,2,3\n"
            ".\n");
}

TEST(JournalGolden, SupervisorHeader) {
  SupervisorJournal identity;
  identity.grid_hash = 0xdeadbeefcafef00dULL;
  identity.master_seed = 7;
  identity.trials = 600;
  identity.total_cells = 8;
  identity.workers = 3;
  identity.engine = "batch";
  identity.cd_engine = "simulate";
  // No payload, so no end-of-record marker: just the field line.
  EXPECT_EQ(format_supervisor_header(identity),
            "crp-supervisor-journal-v1 0xdeadbeefcafef00d 0x7 600 8 3 batch "
            "simulate 0xc8ec78a74636f811\n");
}

TEST(JournalGolden, QuarantineRecord) {
  const QuarantinedCell cell{
      .cell_index = 3, .attempts = 2, .reason = "validation error (exit 3)"};
  EXPECT_EQ(format_supervisor_quarantine(cell),
            "quarantine 3 2 25 0xcf3e33216763b5d8\n"
            "validation error (exit 3)\n"
            ".\n");
}

TEST(JournalGolden, BisectRecordSealsAnEmptyPayload) {
  EXPECT_EQ(
      format_supervisor_bisect({.cell_begin = 2, .mid = 3, .cell_end = 5}),
      "bisect 2 3 5 0x8536fbdb2102d0a1\n"
      "\n"
      ".\n");
}

}  // namespace
}  // namespace crp::harness
