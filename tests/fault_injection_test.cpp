// Fault injection for the checkpoint layer (harness/checkpoint.h):
// the journal survives a kill at *every* cell and every byte. A
// failing or short-writing sink at the Nth append, truncation at
// every byte offset, a flip of every bit of every byte (swept over
// both journal formats — worker and supervisor — since they share one
// framing, harness/journal.h), and duplicate records
// must each leave the journal either resumable (valid prefix, torn
// tail truncated on resume) or rejected with an error naming the file
// and byte offset — never silently replayed. The centerpiece
// assertion everywhere: resume-then-merge is byte-identical to the
// monolithic CSV.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "harness/checkpoint.h"
#include "harness/shard.h"
#include "harness/supervisor.h"
#include "harness/sweep.h"
#include "info/distribution.h"

namespace crp::harness {
namespace {

std::filesystem::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (std::string("crp_fault_") + info->test_suite_name() + "_" +
                    info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The shard_test fixture: 6 cells across two schedules, a CD policy,
/// and two workloads.
struct Fixture {
  Fixture()
      : decay(1 << 10),
        slow_decay(1 << 6),
        willard(1 << 10),
        uniform(info::SizeDistribution::uniform(1 << 10)) {}

  SweepGrid grid() const {
    SweepGrid grid;
    grid.add_algorithm({.name = "decay", .schedule = &decay})
        .add_algorithm({.name = "slow-decay", .schedule = &slow_decay})
        .add_algorithm({.name = "willard", .policy = &willard})
        .add_sizes({.name = "uniform", .distribution = &uniform})
        .add_sizes({.name = "k=100", .fixed_k = 100})
        .add_budget(1 << 12);
    return grid;
  }

  baselines::DecaySchedule decay;
  baselines::DecaySchedule slow_decay;
  baselines::WillardPolicy willard;
  info::SizeDistribution uniform;
};

const SweepOptions kOptions{.trials = 120, .seed = 77, .threads = 1};

/// How the Nth append dies.
enum class FaultMode {
  kFailBeforeWrite,  ///< nothing reaches the file (clean IoError)
  kShortWrite,       ///< half the record reaches the file (torn tail)
  kFailAfterWrite,   ///< everything reached the file, the error came
                     ///< after durability (e.g. a late fsync failure)
};

/// Wraps the real file sink and injects one failure at the Nth
/// append, leaving the on-disk journal exactly as a crash would.
class FaultInjectionSink final : public CheckpointSink {
 public:
  FaultInjectionSink(std::unique_ptr<CheckpointSink> inner,
                     std::size_t fail_at_append, FaultMode mode)
      : inner_(std::move(inner)), fail_at_(fail_at_append), mode_(mode) {}

  void append(std::string_view bytes) override {
    ++appends_;
    if (appends_ == fail_at_) {
      switch (mode_) {
        case FaultMode::kFailBeforeWrite:
          throw IoError("injected fault: append failed before any write");
        case FaultMode::kShortWrite:
          inner_->append(bytes.substr(0, bytes.size() / 2));
          inner_->sync();
          throw IoError("injected fault: short write (torn record)");
        case FaultMode::kFailAfterWrite:
          inner_->append(bytes);
          inner_->sync();
          throw IoError("injected fault: failure after a durable write");
      }
    }
    inner_->append(bytes);
  }
  void sync() override { inner_->sync(); }

 private:
  std::unique_ptr<CheckpointSink> inner_;
  std::size_t fail_at_ = 0;
  std::size_t appends_ = 0;
  FaultMode mode_;
};

CheckpointSinkFactory faulty_factory(std::size_t fail_at_append,
                                     FaultMode mode) {
  return [fail_at_append, mode](const std::string& path) {
    return std::make_unique<FaultInjectionSink>(
        open_file_checkpoint_sink(path), fail_at_append, mode);
  };
}

/// A completed checkpointed run's journal bytes plus its final CSV —
/// the reference artifacts every damage scenario is checked against.
struct Reference {
  std::string journal;
  std::string csv;
  std::vector<CheckpointRecord> records;
  std::size_t header_bytes = 0;
};

Reference build_reference(const std::filesystem::path& dir,
                          std::span<const SweepCell> cells,
                          const ShardOptions& shard) {
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "reference.journal").string();
  const auto run =
      run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
  EXPECT_EQ(run.status, CheckpointRunStatus::kCompleted);
  Reference reference;
  reference.journal = read_file(checkpoint.journal_path);
  reference.csv = run.csv;
  const auto journal = read_checkpoint_journal(checkpoint.journal_path);
  reference.records = journal.records;
  reference.header_bytes = reference.journal.size();
  for (const auto& record : journal.records) {
    reference.header_bytes -= format_checkpoint_record(record).size();
  }
  return reference;
}

TEST(FaultInjection, KillAtEveryCellInEveryModeResumesByteIdentical) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const ShardOptions shard{.shard_count = 1, .shard_index = 0};
  const auto dir = test_dir();
  const Reference reference = build_reference(dir, cells, shard);

  for (const FaultMode mode :
       {FaultMode::kFailBeforeWrite, FaultMode::kShortWrite,
        FaultMode::kFailAfterWrite}) {
    for (std::size_t fail_at = 1; fail_at <= cells.size(); ++fail_at) {
      const auto label = "mode " + std::to_string(static_cast<int>(mode)) +
                         " fail_at " + std::to_string(fail_at);
      const auto kill_dir =
          dir / ("kill-" + std::to_string(static_cast<int>(mode)) + "-" +
                 std::to_string(fail_at));
      std::filesystem::create_directories(kill_dir);
      CheckpointRunOptions checkpoint;
      checkpoint.journal_path = (kill_dir / "shard.journal").string();
      checkpoint.sink_factory = faulty_factory(fail_at, mode);
      EXPECT_THROW((void)run_sweep_shard_checkpointed(cells, shard, kOptions,
                                                      checkpoint),
                   IoError)
          << label;

      // The journal left behind must already be a valid prefix (plus,
      // for the short write, a detectably-torn tail).
      const auto damaged = read_checkpoint_journal(checkpoint.journal_path);
      const std::size_t durable =
          mode == FaultMode::kFailAfterWrite ? fail_at : fail_at - 1;
      EXPECT_EQ(damaged.records.size(), durable) << label;
      EXPECT_EQ(damaged.torn_bytes > 0, mode == FaultMode::kShortWrite)
          << label;

      checkpoint.sink_factory = nullptr;
      checkpoint.resume = true;
      const auto resumed =
          run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
      EXPECT_EQ(resumed.status, CheckpointRunStatus::kCompleted) << label;
      EXPECT_EQ(resumed.replayed_cells, durable) << label;
      EXPECT_EQ(resumed.csv, reference.csv) << label;
      // The healed journal equals the reference byte for byte: the
      // torn tail was truncated and every re-executed record matches.
      EXPECT_EQ(read_file(checkpoint.journal_path), reference.journal)
          << label;
    }
  }
}

/// What a journal reader accepted from a file, re-serialized through
/// the format's own writers. It equals the reference's header and
/// first records exactly when nothing accepted was damaged.
struct Accepted {
  std::size_t valid_bytes = 0;
  std::size_t torn_bytes = 0;
  std::string header;
  std::vector<std::string> records;  ///< in the reader's order
};

/// One journal format under the byte-level damage sweeps: a reference
/// file (header, then framed records) and the format's reader.
struct JournalUnderTest {
  std::string name;
  std::string header;
  std::vector<std::string> records;  ///< framed, in file order
  std::function<Accepted(const std::string& path)> read;

  std::string bytes() const {
    std::string out = header;
    for (const auto& record : records) out += record;
    return out;
  }
  /// Where the valid prefix may end: after the header, then after
  /// each record.
  std::vector<std::size_t> boundaries() const {
    std::vector<std::size_t> out = {header.size()};
    for (const auto& record : records) {
      out.push_back(out.back() + record.size());
    }
    return out;
  }
  /// Asserts `accepted` is an undamaged prefix: it ends on a record
  /// boundary and carries exactly the reference's header and the
  /// records before that boundary.
  void expect_undamaged_prefix(const Accepted& accepted,
                               const std::string& label) const {
    const auto ends = boundaries();
    const auto end = std::find(ends.begin(), ends.end(), accepted.valid_bytes);
    ASSERT_NE(end, ends.end())
        << label << ": valid prefix ends mid-record at byte "
        << accepted.valid_bytes;
    const auto kept = static_cast<std::size_t>(end - ends.begin());
    EXPECT_EQ(accepted.header, header) << label;
    // The supervisor reader groups records by tag, so compare sorted.
    std::vector<std::string> expected(records.begin(),
                                      records.begin() + kept);
    std::vector<std::string> got = accepted.records;
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << label << ": a replayed record is damaged";
  }
};

/// The worker journal of a completed 6-cell checkpointed run.
JournalUnderTest checkpoint_journal(const Reference& reference) {
  JournalUnderTest format;
  format.name = "checkpoint";
  format.header = reference.journal.substr(0, reference.header_bytes);
  for (const auto& record : reference.records) {
    format.records.push_back(format_checkpoint_record(record));
  }
  format.read = [](const std::string& path) {
    const CheckpointJournal journal = read_checkpoint_journal(path);
    ShardManifest identity;
    identity.engine = journal.engine;
    identity.cd_engine = journal.cd_engine;
    identity.grid_hash = journal.grid_hash;
    identity.master_seed = journal.master_seed;
    identity.trials = journal.trials;
    identity.total_cells = journal.total_cells;
    identity.cell_begin = journal.cell_begin;
    identity.cell_end = journal.cell_end;
    Accepted accepted{.valid_bytes = journal.valid_bytes,
                      .torn_bytes = journal.torn_bytes,
                      .header = format_checkpoint_header(identity,
                                                         journal.csv_header),
                      .records = {}};
    for (const auto& record : journal.records) {
      accepted.records.push_back(format_checkpoint_record(record));
    }
    return accepted;
  };
  return format;
}

/// A supervisor journal as a fleet that bisected down to two poisoned
/// cells writes it: bisections interleaved with quarantines.
JournalUnderTest supervisor_journal() {
  SupervisorJournal identity;
  identity.grid_hash = 0xdeadbeefcafef00dULL;
  identity.master_seed = 0x1122334455667788ULL;
  identity.trials = 600;
  identity.total_cells = 8;
  identity.workers = 3;
  identity.engine = "batch";
  identity.cd_engine = "simulate";
  JournalUnderTest format;
  format.name = "supervisor";
  format.header = format_supervisor_header(identity);
  format.records = {
      format_supervisor_bisect({.cell_begin = 0, .mid = 1, .cell_end = 3}),
      format_supervisor_bisect({.cell_begin = 1, .mid = 2, .cell_end = 3}),
      format_supervisor_quarantine({.cell_index = 2,
                                    .attempts = 0,
                                    .reason = "validation error (exit 3)"}),
      format_supervisor_bisect({.cell_begin = 3, .mid = 4, .cell_end = 6}),
      format_supervisor_quarantine(
          {.cell_index = 3,
           .attempts = 4,
           .reason = "timed out (killed by the supervisor) after 4 "
                     "no-progress attempt(s)"}),
  };
  format.read = [](const std::string& path) {
    const SupervisorJournal journal = read_supervisor_journal(path);
    Accepted accepted{.valid_bytes = journal.valid_bytes,
                      .torn_bytes = journal.torn_bytes,
                      .header = format_supervisor_header(journal),
                      .records = {}};
    for (const auto& record : journal.bisections) {
      accepted.records.push_back(format_supervisor_bisect(record));
    }
    for (const auto& cell : journal.quarantined) {
      accepted.records.push_back(format_supervisor_quarantine(cell));
    }
    return accepted;
  };
  return format;
}

/// Both journal formats, over the shared framing.
std::vector<JournalUnderTest> journal_formats(
    const std::filesystem::path& dir) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const Reference reference =
      build_reference(dir, cells, {.shard_count = 1, .shard_index = 0});
  return {checkpoint_journal(reference), supervisor_journal()};
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(FaultInjection, TruncationAtEveryByteIsTornOrHeaderDamage) {
  const auto dir = test_dir();
  for (const JournalUnderTest& format : journal_formats(dir)) {
    const std::string bytes = format.bytes();
    const auto boundaries = format.boundaries();
    const auto path = (dir / (format.name + ".truncated.journal")).string();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::string label =
          format.name + " journal cut at " + std::to_string(cut);
      write_bytes(path, std::string_view(bytes).substr(0, cut));
      if (cut < format.header.size()) {
        // The header is written atomically — a file that ends inside
        // it cannot come from a crash and must be rejected, naming the
        // file.
        try {
          (void)format.read(path);
          ADD_FAILURE() << label << ": header truncation was accepted";
        } catch (const std::invalid_argument& error) {
          EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
              << error.what();
        }
        continue;
      }
      // Inside the record region every truncation is a legal crash:
      // the valid prefix is the greatest record boundary <= cut and
      // the rest is torn tail.
      const Accepted accepted = format.read(path);
      const std::size_t expected_valid =
          *(std::upper_bound(boundaries.begin(), boundaries.end(), cut) - 1);
      EXPECT_EQ(accepted.valid_bytes, expected_valid) << label;
      EXPECT_EQ(accepted.torn_bytes, cut - expected_valid) << label;
      format.expect_undamaged_prefix(accepted, label);
    }
  }
}

TEST(FaultInjection, BitFlipIsNeverSilentlyReplayed) {
  const auto dir = test_dir();
  for (const JournalUnderTest& format : journal_formats(dir)) {
    const std::string bytes = format.bytes();
    const auto path = (dir / (format.name + ".flipped.journal")).string();
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
      for (int bit = 0; bit < 8; ++bit) {
        const std::string label = format.name + " journal, bit " +
                                  std::to_string(bit) + " of byte " +
                                  std::to_string(offset);
        std::string flipped = bytes;
        flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
        write_bytes(path, flipped);
        // Every single-bit flip must either be rejected — an error
        // naming the file and a byte offset — or classified as a torn
        // tail whose valid prefix carries only *undamaged* records (a
        // flip in a length field can legally make the file look
        // short). What can never happen: a damaged record replayed as
        // valid — including a hex digit whose case bit flipped.
        try {
          const Accepted accepted = format.read(path);
          EXPECT_GT(accepted.torn_bytes, 0u)
              << label << " was silently accepted";
          format.expect_undamaged_prefix(accepted, label);
        } catch (const std::invalid_argument& error) {
          const std::string what = error.what();
          EXPECT_NE(what.find(path), std::string::npos)
              << label << ": error does not name the file: " << what;
          EXPECT_NE(what.find("at byte "), std::string::npos)
              << label << ": error does not name the offset: " << what;
        }
      }
    }
  }
}

TEST(FaultInjection, CorruptedChecksumNamesFileAndExactOffset) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const Reference reference =
      build_reference(dir, cells, {.shard_count = 1, .shard_index = 0});
  const auto path = (dir / "corrupt.journal").string();

  // Flip a byte inside the *second* record's row payload: the framing
  // still parses, so only the checksum can catch it — and the error
  // must point at that record's start offset, not the file start.
  ASSERT_GE(reference.records.size(), 2u);
  const std::size_t second_start =
      reference.header_bytes +
      format_checkpoint_record(reference.records[0]).size();
  const std::string second = format_checkpoint_record(reference.records[1]);
  const std::size_t payload_offset = second_start + second.find('\n') + 3;
  std::string corrupted = reference.journal;
  ASSERT_NE(corrupted[payload_offset], 'Z');
  corrupted[payload_offset] = 'Z';
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << corrupted;
  out.close();

  try {
    (void)read_checkpoint_journal(path);
    FAIL() << "corrupted checksum was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(second_start)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
}

TEST(FaultInjection, DuplicateRecordRejectedAtItsOffset) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const Reference reference =
      build_reference(dir, cells, {.shard_count = 1, .shard_index = 0});
  const auto path = (dir / "duplicate.journal").string();

  // Append a byte-exact copy of the first record at the end: framing
  // and checksum are valid, so only the exactly-once index tracking
  // can reject it.
  const std::string duplicate =
      format_checkpoint_record(reference.records.front());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << reference.journal << duplicate;
  out.close();

  try {
    (void)read_checkpoint_journal(path);
    FAIL() << "duplicate record was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("duplicate record for cell"), std::string::npos)
        << what;
    EXPECT_NE(
        what.find("at byte " + std::to_string(reference.journal.size())),
        std::string::npos)
        << what;
  }
}

TEST(FaultInjection, ResumeThenMergeByteIdenticalToMonolithic) {
  // The acceptance scenario end to end: three shards, each killed
  // mid-grid by a different fault mode, each resumed, the artifacts
  // merged — the result must equal the monolithic CSV byte for byte.
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  std::ostringstream monolithic;
  write_sweep_csv(monolithic, run_sweep(cells, kOptions));

  const FaultMode modes[] = {FaultMode::kFailBeforeWrite,
                             FaultMode::kShortWrite,
                             FaultMode::kFailAfterWrite};
  std::vector<ShardArtifact> artifacts;
  for (std::size_t index = 0; index < 3; ++index) {
    const ShardOptions shard{.shard_count = 3, .shard_index = index};
    CheckpointRunOptions checkpoint;
    checkpoint.journal_path =
        (dir / ("shard-" + std::to_string(index) + ".journal")).string();
    checkpoint.sink_factory = faulty_factory(1, modes[index]);
    EXPECT_THROW(
        (void)run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint),
        IoError);
    checkpoint.sink_factory = nullptr;
    checkpoint.resume = true;
    const auto resumed =
        run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
    ASSERT_EQ(resumed.status, CheckpointRunStatus::kCompleted);

    ShardArtifact artifact;
    artifact.manifest = resumed.manifest;
    std::istringstream csv_in(resumed.csv);
    artifact.csv = read_shard_csv(csv_in);
    artifacts.push_back(std::move(artifact));
  }
  std::ostringstream merged;
  merge_shard_csvs(merged, artifacts);
  EXPECT_EQ(merged.str(), monolithic.str());
}

}  // namespace
}  // namespace crp::harness
