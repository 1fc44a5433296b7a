// The one journal framing behind both crash-safe journals: the worker
// checkpoint journal (crp-checkpoint-journal-v1, harness/checkpoint.h)
// and the supervisor state journal (crp-supervisor-journal-v1,
// harness/supervisor.h). Each format is a record schema over this
// module — its tags, field counts, checksums and range checks — while
// everything about the bytes between records lives here:
//
//   <field> <field> ... <field>\n      one space-separated field line
//   <payload bytes>\n.\n                records only: the payload, whose
//                                      length is one of the fields, then
//                                      the end-of-record marker
//
// A journal is a header written whole (atomic_write_file) followed by
// records appended through an fsync'd CheckpointSink, so after a crash
// the file is a valid prefix of records plus at most a detectably-torn
// tail. JournalReader tells the two apart: a file that ends inside a
// record is torn (reported, truncated on resume), while a complete
// record that does not parse is corruption and throws, naming the file
// and the byte offset of the record.
//
/// Ownership: JournalReader owns a copy of the file bytes; the string
/// views it hands out point into that copy and live as long as it.
///
/// Thread-safety: none needed — a journal is read by one thread and
/// appended to by one process at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace crp::harness {

/// An I/O failure (open/write/fsync/rename) in the checkpoint or
/// artifact layer. Distinct from std::invalid_argument (validation:
/// corrupt or mismatched inputs) so callers — crp_shard's exit-code
/// taxonomy — can map the two to different retry policies.
struct IoError : std::runtime_error {
  explicit IoError(const std::string& message) : std::runtime_error(message) {}
};

/// "0x" followed by the value in lower-case hex digits, no leading
/// zeros — the spelling of every seed and hash in the journals,
/// manifests and reports.
std::string hex(std::uint64_t value);

/// One framed block: the `fields` joined by single spaces and a
/// newline, then — when `payload` is given, even empty — the payload
/// bytes and the end-of-record marker. No field may contain a space or
/// a newline.
std::string journal_frame(std::initializer_list<std::string_view> fields,
                          std::optional<std::string_view> payload);

/// Reads a journal file whole and walks its frames. `kind` names the
/// format in every message ("checkpoint", "supervisor"); validation
/// errors throw std::invalid_argument starting
/// "<kind> journal <path> at byte <N>: ".
class JournalReader {
 public:
  /// Throws IoError when `path` cannot be opened or read.
  JournalReader(std::string kind, std::string path);

  /// The header line split into fields. The header is written
  /// atomically, so a missing newline, a wrong field count or a wrong
  /// `magic` first field is damage, never a torn write: fails.
  std::vector<std::string> header(std::string_view magic,
                                  std::size_t field_count);

  /// Walks the records after the header. `record` gets each complete
  /// field line (split, and whole for messages) and parses it with the
  /// field_* / payload calls below; it returns false when payload()
  /// reported the file ending inside the record. A file that ends
  /// mid-line or inside a payload is a torn tail: the walk stops at
  /// that record's start, and valid_bytes() / torn_bytes() say where.
  void records(const std::function<bool(const std::vector<std::string>& fields,
                                        std::string_view line)>& record);

  /// Throws the "<kind> journal <path> at byte <N>: <message>" error
  /// for the frame being parsed (the header is at byte 0).
  [[noreturn]] void fail(const std::string& message) const;

  /// A field that must be a plain non-negative decimal integer.
  std::uint64_t field_uint(const std::string& field,
                           const std::string& what) const;
  /// A field that must be "0x" plus 1–16 lower-case hex digits — the
  /// exact spelling hex() writes, so a case flip of a digit is
  /// rejected rather than read as the same value.
  std::uint64_t field_hex(const std::string& field,
                          const std::string& what) const;

  /// Consumes `length` payload bytes plus the end-of-record marker;
  /// nullopt when the file ends first (a torn record — the caller
  /// decides whether that frame may legally be torn). Bytes where the
  /// marker should be that are not the marker fail.
  std::optional<std::string> payload(std::size_t length);

  /// Byte length of the valid prefix: the header plus every record the
  /// walk accepted.
  std::size_t valid_bytes() const { return valid_bytes_; }
  /// Bytes of torn tail after the valid prefix (0 = clean).
  std::size_t torn_bytes() const { return text_.size() - valid_bytes_; }

 private:
  std::optional<std::string_view> next_line();

  std::string kind_;
  std::string path_;
  std::string text_;
  std::size_t pos_ = 0;
  std::size_t frame_start_ = 0;
  std::size_t valid_bytes_ = 0;
};

/// Resume step: cuts `path` back to its `valid_bytes` prefix when the
/// reader found a torn tail, so appends continue after the last whole
/// record. Throws IoError.
void truncate_torn_tail(const std::string& path, std::size_t valid_bytes,
                        std::size_t torn_bytes);

/// Writes `contents` under `path` atomically: temp file in the same
/// directory, write, fsync, rename over the final name, fsync the
/// directory. A crash or disk-full at any point leaves either the old
/// file (or nothing) or the complete new file under `path` — never a
/// half-written artifact under the final name. Creates parent
/// directories as needed, and fsyncs the parent of every directory it
/// creates: a new directory is itself just an entry in *its* parent,
/// so without the chain fsync a power loss right after the rename
/// could forget the whole directory tree even though the file's own
/// directory entry was flushed. Throws IoError.
void atomic_write_file(const std::string& path, std::string_view contents);

/// Durability seam for journal appends. The production sink is an
/// O_APPEND file descriptor with fsync; tests inject sinks that fail,
/// short-write, or truncate at the Nth append to prove every recovery
/// path (tests/fault_injection_test.cpp).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  /// Appends bytes at the end of the journal. Throws IoError.
  virtual void append(std::string_view bytes) = 0;
  /// Durably flushes everything appended so far (fsync). Throws IoError.
  virtual void sync() = 0;
};

/// The production sink: append-only writes + fsync on `sync()`. The
/// file must already exist (the journal header is created atomically
/// by atomic_write_file first).
std::unique_ptr<CheckpointSink> open_file_checkpoint_sink(
    const std::string& path);

}  // namespace crp::harness
