#include "harness/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "harness/csv.h"

namespace crp::harness {

namespace {

/// Every record ends with newline, '.', newline: the completion marker
/// a torn write cannot fake (truncation removes it, and a short write
/// that stops inside it leaves a detectably-incomplete record).
constexpr std::string_view kEndMarker = "\n.\n";

[[noreturn]] void io_fail(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// write(2) until everything is out; EINTR retried, any other failure
/// (including a kernel-reported short write on a full disk) throws.
void write_all(int fd, std::string_view bytes, const std::string& what) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("cannot write " + what);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) io_fail("cannot fsync " + what);
}

/// fsync on the directory entry, so the rename (or file creation)
/// itself is durable — without this a power loss can forget the file
/// existed even though its contents were flushed.
void fsync_directory(const std::filesystem::path& dir) {
  const std::string name = dir.empty() ? "." : dir.string();
  const int fd = ::open(name.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) io_fail("cannot open directory " + name + " for fsync");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_fail("cannot fsync directory " + name);
  }
  ::close(fd);
}

class FileCheckpointSink final : public CheckpointSink {
 public:
  explicit FileCheckpointSink(std::string path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) io_fail("cannot open checkpoint journal " + path_);
  }
  ~FileCheckpointSink() override {
    if (fd_ >= 0) ::close(fd_);
  }
  FileCheckpointSink(const FileCheckpointSink&) = delete;
  FileCheckpointSink& operator=(const FileCheckpointSink&) = delete;

  void append(std::string_view bytes) override {
    write_all(fd_, bytes, "checkpoint journal " + path_);
  }
  void sync() override { fsync_or_throw(fd_, "checkpoint journal " + path_); }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Splits a complete journal line on single spaces (no field in either
/// format may contain one; engine names are hyphenated).
std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    const auto space = line.find(' ', start);
    if (space == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      break;
    }
    fields.emplace_back(line.substr(start, space - start));
    start = space + 1;
  }
  return fields;
}

/// Lower-case only: hex() never writes 'A'–'F', so accepting them would
/// let a flipped case bit read back as an unchanged value.
std::optional<std::uint64_t> parse_hex_u64(const std::string& raw) {
  if (raw.size() < 3 || raw.size() > 18 || raw[0] != '0' || raw[1] != 'x') {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (std::size_t i = 2; i < raw.size(); ++i) {
    const char c = raw[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    value = value * 16 + static_cast<std::uint64_t>(digit);
  }
  return value;
}

}  // namespace

std::string hex(std::uint64_t value) {
  char digits[16];
  const auto end = std::to_chars(digits, digits + sizeof digits, value, 16).ptr;
  std::string out = "0x";
  out.append(digits, end);
  return out;
}

std::string journal_frame(std::initializer_list<std::string_view> fields,
                          std::optional<std::string_view> payload) {
  std::string out;
  for (const std::string_view field : fields) {
    if (!out.empty()) out += ' ';
    out += field;
  }
  out += '\n';
  if (payload) {
    out += *payload;
    out += kEndMarker;
  }
  return out;
}

JournalReader::JournalReader(std::string kind, std::string path)
    : kind_(std::move(kind)), path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw IoError("cannot open " + kind_ + " journal " + path_ + ": " +
                  std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw IoError("cannot read " + kind_ + " journal " + path_);
  text_ = buffer.str();
}

void JournalReader::fail(const std::string& message) const {
  throw std::invalid_argument(kind_ + " journal " + path_ + " at byte " +
                              std::to_string(frame_start_) + ": " + message);
}

/// The next complete line (without its newline), or nullopt when no
/// newline follows — the file ends mid-line.
std::optional<std::string_view> JournalReader::next_line() {
  const auto nl = text_.find('\n', pos_);
  if (nl == std::string::npos) return std::nullopt;
  std::string_view line(text_.data() + pos_, nl - pos_);
  pos_ = nl + 1;
  return line;
}

std::vector<std::string> JournalReader::header(std::string_view magic,
                                               std::size_t field_count) {
  const auto line = next_line();
  if (!line) {
    fail("incomplete header line (the header is written atomically — "
         "this file is damaged, not torn)");
  }
  auto fields = split_fields(*line);
  if (fields.size() != field_count || fields[0] != magic) {
    fail("not a " + std::string(magic) + " header: \"" + std::string(*line) +
         "\"");
  }
  return fields;
}

void JournalReader::records(
    const std::function<bool(const std::vector<std::string>& fields,
                             std::string_view line)>& record) {
  valid_bytes_ = pos_;
  while (pos_ < text_.size()) {
    frame_start_ = pos_;
    // A complete line (its newline made it to disk) that does not parse
    // cannot come from a torn append — appends are sequential, so a
    // crash only ever removes a suffix. `record` rejects it.
    const auto line = next_line();
    if (!line || !record(split_fields(*line), *line)) {
      pos_ = frame_start_;
      break;
    }
    valid_bytes_ = pos_;
  }
}

std::uint64_t JournalReader::field_uint(const std::string& field,
                                        const std::string& what) const {
  const auto value = parse_csv_unsigned(field);
  if (!value) {
    fail(what + " must be a plain non-negative integer, got \"" + field +
         "\"");
  }
  return *value;
}

std::uint64_t JournalReader::field_hex(const std::string& field,
                                       const std::string& what) const {
  const auto value = parse_hex_u64(field);
  if (!value) {
    fail(what + " must be an \"0x...\" hex value, got \"" + field + "\"");
  }
  return *value;
}

std::optional<std::string> JournalReader::payload(std::size_t length) {
  // Overflow-safe: `length` may be a bit-flipped garbage value, so
  // never compute pos + length directly.
  if (length > text_.size() - pos_ ||
      kEndMarker.size() > text_.size() - pos_ - length) {
    return std::nullopt;  // the file ends inside payload or marker
  }
  if (std::string_view(text_).substr(pos_ + length, kEndMarker.size()) !=
      kEndMarker) {
    fail("end-of-record marker missing — the record is damaged, not torn "
         "(bytes continue past where it should end)");
  }
  std::string out = text_.substr(pos_, length);
  pos_ += length + kEndMarker.size();
  return out;
}

void truncate_torn_tail(const std::string& path, std::size_t valid_bytes,
                        std::size_t torn_bytes) {
  if (torn_bytes == 0) return;
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    throw IoError("cannot truncate torn tail of " + path + ": " +
                  ec.message());
  }
}

void atomic_write_file(const std::string& path, std::string_view contents) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    // Note which ancestors are about to be created (deepest first):
    // each new directory is an entry in *its* parent, so every such
    // parent needs an fsync or a power loss can forget the chain.
    std::vector<fs::path> created;
    for (fs::path p = target.parent_path(); !p.empty() && !fs::exists(p, ec);
         p = p.parent_path()) {
      created.push_back(p);
    }
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      throw IoError("cannot create directory " +
                    target.parent_path().string() + ": " + ec.message());
    }
    for (auto it = created.rbegin(); it != created.rend(); ++it) {
      fsync_directory(it->parent_path());
    }
  }
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) io_fail("cannot create " + tmp);
  try {
    write_all(fd, contents, tmp);
    fsync_or_throw(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    io_fail("cannot close " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    io_fail("cannot rename " + tmp + " to " + path);
  }
  fsync_directory(target.parent_path());
}

std::unique_ptr<CheckpointSink> open_file_checkpoint_sink(
    const std::string& path) {
  return std::make_unique<FileCheckpointSink>(path);
}

}  // namespace crp::harness
