"""Output checks of the crp_shard benchmark.

Every timed invocation's CSV goes through check_output(); a non-empty
error list makes that invocation a failed operation. The checks:

  * rows: exactly one CSV row per planned cell, in plan order, whose
    cell_seed and trials equal `crp_shard plan --json` for the same flags;
  * reference: the CSV is byte-identical to the run's reference CSV (a
    monolithic `crp_shard run` of the same grid and seed, made once per
    run, untimed, and itself checked against the plan and the oracle);
  * oracle: each oracle cell's mean lies within ORACLE_CI95_MULTIPLE
    times its ci95 of the exact mean solving round, plus the oracle's
    slack (a proven bound on what the mass its profiles left unresolved
    can move the mean) and the CSV's 4-decimal rounding;
  * quarantine: a supervised run's quarantine report lists no cell.
"""

import csv
import io
import json

ORACLE_CI95_MULTIPLE = 3.0
PRINT_ROUNDING = 1e-4  # mean and ci95 are printed with 4 decimals


def plan_cells(plan_json_text):
    """(cell_index, cell_seed, trials) per planned cell, in plan order."""
    plan = json.loads(plan_json_text)
    cells = []
    for shard in plan["shards"]:
        for cell in shard["cells"]:
            cells.append((cell["cell_index"], int(cell["cell_seed"], 16),
                          cell["trials"]))
    return cells


def _rows(csv_text):
    reader = csv.DictReader(io.StringIO(csv_text))
    return list(reader)


def check_rows(csv_text, planned):
    try:
        rows = _rows(csv_text)
    except csv.Error as error:
        return [f"unparseable CSV: {error}"]
    errors = []
    if len(rows) != len(planned):
        errors.append(f"{len(rows)} rows for {len(planned)} planned cells")
    for row, (index, seed, trials) in zip(rows, planned):
        try:
            got_seed, got_trials = int(row["cell_seed"]), int(row["trials"])
        except (KeyError, TypeError, ValueError):
            errors.append(f"cell {index}: malformed row {row}")
            continue
        if got_seed != seed:
            errors.append(f"cell {index}: cell_seed {got_seed} != plan {seed}")
        if got_trials != trials:
            errors.append(f"cell {index}: trials {got_trials} != plan {trials}")
    return errors


def check_oracle(csv_text, oracle):
    """oracle: the crp-oracle-v1 document of crp_trace oracle."""
    try:
        rows = _rows(csv_text)
    except csv.Error as error:
        return [f"unparseable CSV: {error}"]
    errors = []
    for cell in oracle["cells"]:
        index = cell["cell_index"]
        if index >= len(rows):
            errors.append(f"cell {index}: missing for the oracle check")
            continue
        try:
            mean, ci95 = float(rows[index]["mean"]), float(rows[index]["ci95"])
        except (KeyError, TypeError, ValueError):
            errors.append(f"cell {index}: malformed mean/ci95")
            continue
        allowed = (ORACLE_CI95_MULTIPLE * ci95 + cell["slack"] +
                   PRINT_ROUNDING)
        if not abs(mean - cell["exact_mean"]) <= allowed:
            errors.append(
                f"cell {index}: mean {mean} is {abs(mean - cell['exact_mean']):.4g}"
                f" from the exact {cell['exact_mean']:.6f} (allowed {allowed:.4g})")
    return errors


def check_reference(csv_text, reference_text):
    if csv_text == reference_text:
        return []
    got, want = csv_text.splitlines(), reference_text.splitlines()
    for line, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            return [f"differs from the reference at line {line}: {a!r} != {b!r}"]
    return [f"differs from the reference in length ({len(csv_text)} vs "
            f"{len(reference_text)} bytes)"]


def check_quarantine(report_text):
    try:
        report = json.loads(report_text)
    except ValueError as error:
        return [f"unreadable quarantine report: {error}"]
    if report.get("quarantined") != []:
        return [f"quarantined cells: {report.get('quarantined')}"]
    return []


def check_output(csv_text, planned, reference_text=None, oracle=None,
                 quarantine_text=None):
    """Every applicable check; the invocation fails if any error is
    returned."""
    errors = check_rows(csv_text, planned)
    if oracle is not None:
        errors += check_oracle(csv_text, oracle)
    if reference_text is not None:
        errors += check_reference(csv_text, reference_text)
    if quarantine_text is not None:
        errors += check_quarantine(quarantine_text)
    return errors


class Tally:
    """attempted/failed counts of one run; error_rate = failed/attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(errors)
        return not errors

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0
