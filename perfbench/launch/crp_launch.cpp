// crp_launch: runs one command and reports what it cost, for the
// crp_shard benchmark (perfbench/README.md).
//
// Usage: crp_launch REPORT_FILE COMMAND [ARGS...]
//
// Forks COMMAND with the launcher's standard streams, waits for it with
// wait4, and writes one line to REPORT_FILE:
//   <wall_s> <cpu_s> <maxrss_kib>
// wall_s runs from the fork to the reap; cpu_s (user + system) and
// maxrss_kib are the wait4 rusage of COMMAND and every descendant it
// reaped. A child's ru_maxrss starts at the resident size of the
// process that forked it, so a command forked straight from the Python
// driver would report the driver's memory whenever its own is smaller;
// forked from this small launcher, it reports its own.
//
// Exits with COMMAND's exit code, 128 + the signal that killed it, or
// 127 when it cannot be started (as a shell does).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <ctime>

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: crp_launch REPORT_FILE COMMAND [ARGS...]\n");
    return 2;
  }
  const double start = now_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("crp_launch: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("crp_launch: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("crp_launch: wait4");
      return 2;
    }
  }
  const double wall = now_s() - start;
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr) {
    std::perror("crp_launch: report file");
    return 2;
  }
  std::fprintf(report, "%.9f %.6f %ld\n", wall,
               seconds(usage.ru_utime) + seconds(usage.ru_stime),
               usage.ru_maxrss);
  if (std::fclose(report) != 0) {
    std::perror("crp_launch: report file");
    return 2;
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
