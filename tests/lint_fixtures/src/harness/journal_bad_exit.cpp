// Fixture: exit-taxonomy — the journal framing is read and written on
// the worker and supervisor paths, so a raw exit code there is as
// much a scheduler-facing contract break as one in crp_shard.
#include <cstdlib>

void bad_journal_exit(bool corrupt) {
  if (corrupt) {
    std::exit(3);  // expect-lint: exit-taxonomy
  }
}
