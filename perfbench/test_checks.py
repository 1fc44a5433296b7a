#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each injected defect
must count as a failed operation in error_rate.

Run: python3 perfbench/test_checks.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

HEADER = "algorithm,sizes,budget,trials,cell_seed,mean,ci95,p50,p90,p99,success_rate"
ROWS = [
    "likelihood,H=0.00,262144,2000000,11579464223147915565,6.3757,0.0151,1.0,21.0,43.0,1.0000",
    "coded,H=0.00,16384,2000000,15005941719901124961,4.8563,0.0058,3.0,10.0,19.0,1.0000",
    "likelihood,H=1.00,262144,2000000,5581438582650690979,6.4791,0.0147,2.0,22.0,43.0,1.0000",
]
SEEDS = [11579464223147915565, 15005941719901124961, 5581438582650690979]
PLAN = json.dumps({"shards": [{"cells": [
    {"cell_index": i, "cell_seed": hex(seed), "trials": 2000000}
    for i, seed in enumerate(SEEDS)]}]})
# Exact means from `crp_trace oracle` for these three table1 cells.
ORACLE = {"cells": [
    {"cell_index": 0, "exact_mean": 6.359291827404426, "slack": 0.0},
    {"cell_index": 1, "exact_mean": 4.854514832257349, "slack": 0.4009716423783799},
    {"cell_index": 2, "exact_mean": 6.492436725760809, "slack": 0.0},
]}
QUARANTINE_EMPTY = '{"format": "crp-quarantine-v1", "quarantined": []}'


def csv_of(rows):
    return "\n".join([HEADER, *rows]) + "\n"


REFERENCE = csv_of(ROWS)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.planned = checks.plan_cells(PLAN)

    def check(self, text, **kwargs):
        kwargs.setdefault("reference_text", REFERENCE)
        kwargs.setdefault("oracle", ORACLE)
        return checks.check_output(text, self.planned, **kwargs)

    def test_reference_passes(self):
        self.assertEqual(self.check(REFERENCE), [])
        self.assertEqual(self.check(REFERENCE, oracle=None,
                                    quarantine_text=QUARANTINE_EMPTY), [])

    def test_altered_mean_digit_fails(self):
        # Last digit: only the byte comparison against the reference sees it.
        last = csv_of([ROWS[0].replace("6.3757", "6.3758"), *ROWS[1:]])
        self.assertNotEqual(self.check(last), [])
        # Leading digit: the exact oracle sees it on its own too.
        lead = csv_of([ROWS[0].replace("6.3757", "7.3757"), *ROWS[1:]])
        self.assertNotEqual(checks.check_oracle(lead, ORACLE), [])
        self.assertNotEqual(self.check(lead, reference_text=None), [])

    def test_dropped_row_fails(self):
        dropped = csv_of([ROWS[0], ROWS[2]])
        self.assertNotEqual(checks.check_rows(dropped, self.planned), [])
        self.assertNotEqual(self.check(dropped), [])

    def test_wrong_cell_seed_fails(self):
        wrong = csv_of([ROWS[0], ROWS[1].replace("15005941719901124961",
                                                 "15005941719901124962"), ROWS[2]])
        self.assertNotEqual(checks.check_rows(wrong, self.planned), [])
        self.assertNotEqual(self.check(wrong, reference_text=None, oracle=None), [])

    def test_merged_csv_one_byte_off_fails(self):
        # A p99 the other checks do not read, and a missing final newline.
        p99 = csv_of([ROWS[0], ROWS[1].replace(",19.0,", ",18.0,"), ROWS[2]])
        for off in (p99, REFERENCE[:-1]):
            self.assertEqual(checks.check_rows(off, self.planned), [])
            self.assertNotEqual(self.check(off, oracle=None,
                                           quarantine_text=QUARANTINE_EMPTY), [])

    def test_quarantined_cell_fails(self):
        report = '{"quarantined": [{"cell_index": 1}]}'
        self.assertNotEqual(self.check(REFERENCE, quarantine_text=report), [])

    def test_each_defect_counts_in_error_rate(self):
        defects = [
            csv_of([ROWS[0].replace("6.3757", "6.3758"), *ROWS[1:]]),
            csv_of([ROWS[0], ROWS[2]]),
            csv_of([ROWS[0], ROWS[1].replace("15005941719901124961",
                                             "15005941719901124962"), ROWS[2]]),
            csv_of([ROWS[0], ROWS[1].replace(",19.0,", ",18.0,"), ROWS[2]]),
        ]
        tally = checks.Tally()
        tally.record(self.check(REFERENCE))
        for text in defects:
            tally.record(self.check(text))
        self.assertEqual((tally.attempted, tally.failed), (5, 4))
        self.assertAlmostEqual(tally.error_rate, 0.8)


if __name__ == "__main__":
    unittest.main()
