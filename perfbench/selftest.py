"""Fast check that the benchmark's correctness gates bite.

Run from anywhere with ``python3 perfbench/selftest.py`` (a few seconds).
It shows that a wrong ``checked`` count, a refuted report, a corrupted or
inconsistent query answer and a raising query are each counted as failures
and that their times are left out of the metrics, and that the speed meter
turns wall time into reference seconds as ``speed.py`` says.
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qschur  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

# Partitions of n <= 4: 1 + 2 + 3 + 5.
SCHUR_4 = ("schur", 4, 11)


def corrupt(kind: str, text: str) -> str:
    """A wrong answer of the right shape for ``kind``."""
    obj = json.loads(text)
    if kind.startswith("expand"):
        obj["terms"][0]["coefficient"] += 1
    elif kind == "check":
        obj["fmf"] = not obj["fmf"]
    elif kind == "witnesses":
        obj = obj[1:] if obj else [{"degree": 0, "descents": [], "first": [], "second": []}]
    elif kind == "tableaux":
        obj = obj[:-1]
    return json.dumps(obj)


def ask(seed: int, count: int, meter: speed.SpeedMeter | None = None) -> dict:
    """The worker's query loop, in two segments, with its checks."""
    loop = worker.QueryLoop(qschur, seed, meter)
    if meter is not None:
        meter.start()
    loop.ask(count // 2)
    loop.ask(count - count // 2)
    if meter is not None:
        meter.stop()
    return loop.finish()


class SweepGate(unittest.TestCase):
    def test_report_problem(self):
        report = qschur.verify(*SCHUR_4[:2])
        self.assertIsNone(worker.report_problem(report, *SCHUR_4))
        self.assertIn("expected 12", worker.report_problem(report, "schur", 4, 12))
        refuted = SimpleNamespace(
            theorem="schur", max_n=4, checked=11, verified=False, disagreements=(object(),)
        )
        self.assertIn("disagreements", worker.report_problem(refuted, *SCHUR_4))

    def test_wrong_checked_count_is_a_failed_sample(self):
        r = run.Run("young-sweep", seed=1, seconds=1)
        original = run.SWEEPS["young-sweep"]
        try:
            run.SWEEPS["young-sweep"] = (SCHUR_4,)
            self.assertIsNotNone(r.sweep(trace=False))
            self.assertEqual((r.attempted, r.failed), (1, 0))
            run.SWEEPS["young-sweep"] = (SCHUR_4[:2] + (12,),)
            self.assertIsNone(r.sweep(trace=False))  # no time is reported
            self.assertEqual((r.attempted, r.failed), (2, 1))
        finally:
            run.SWEEPS["young-sweep"] = original


class QueryGate(unittest.TestCase):
    def sample(self) -> dict:
        """One query of every (kind, source type) pair the stream makes."""
        found = {}
        for kind, source in queries.stream(7):
            found.setdefault((kind, source[0]), source)
            if len(found) == sum(len(k) for k in queries.KINDS.values()):
                return found
        raise AssertionError("unreachable")

    def test_oracle_accepts_answers_and_rejects_corruptions(self):
        oracle = queries.Oracle(qschur)
        for (kind, _), source in self.sample().items():
            text = queries.answer(qschur, kind, source)
            self.assertIsNone(oracle.problem(kind, source, text), (kind, source))
            self.assertIsNotNone(
                oracle.problem(kind, source, corrupt(kind, text)), (kind, source)
            )

    def test_bad_answers_count_and_lose_their_times(self):
        honest = queries.answer
        bad = next(itertools.islice(queries.stream(11), 4, None))
        asked = []

        def flaky(q, kind, source):
            asked.append((kind, source))
            if len(asked) == 3:
                raise qschur.BudgetExceededError("a test query", 1)
            text = honest(q, kind, source)
            # Every answer to the 5th query is wrong, its repeats included.
            return corrupt(kind, text) if (kind, source) == bad else text

        queries.answer = flaky
        try:
            out = ask(11, 200, speed.SpeedMeter())
        finally:
            queries.answer = honest
        failed = 1 + sum(1 for i, key in enumerate(asked) if key == bad and i != 2)
        self.assertEqual(out["attempted"], 200)
        self.assertEqual(out["failed"], failed)
        self.assertEqual(len(out["latencies"]), 200 - failed)
        self.assertEqual(len(out["reference"]), 200 - failed)
        self.assertTrue(all(t > 0 for t in out["reference"]))

    def test_changing_answers_fail(self):
        honest = queries.answer
        seen = set()

        def unstable(q, kind, source):
            text = honest(q, kind, source)
            if (kind, source) in seen:
                return text + " "
            seen.add((kind, source))
            return text

        queries.answer = unstable
        try:
            out = ask(3, 300)
        finally:
            queries.answer = honest
        self.assertGreater(out["failed"], 0)
        self.assertTrue(any("different answers" in e for e in out["errors"]))


class Meter(unittest.TestCase):
    @staticmethod
    def probes(starts, py, c):
        """Probes at ``starts`` whose parts take ``py`` and ``c`` times
        their reference times."""
        return [
            (t, t + a * speed.REFERENCE_PY_S, t + a * speed.REFERENCE_PY_S + b * speed.REFERENCE_C_S)
            for t, a, b in zip(starts, py, c)
        ]

    def test_reference_seconds_follow_the_probes(self):
        meter = speed.SpeedMeter()
        # One-second gaps between probes at normal, normal, half, half speed.
        meter.probes = self.probes([0, 1, 2, 3], [1, 1, 2, 2], [1, 1, 1, 1])
        meter._build()
        end = [p[2] for p in meter.probes]
        self.assertAlmostEqual(meter.span(end[0], 1), 1 - end[0])
        self.assertAlmostEqual(meter.span(end[1], 2), (2 - end[1]) / 1.5)
        self.assertAlmostEqual(meter.span(end[2], 3), (3 - end[2]) / 2)
        self.assertEqual(meter.span(2, end[2]), 0)  # a probe's own time
        self.assertAlmostEqual(
            meter.span(0.5, 2.5), 0.5 + (2 - end[1]) / 1.5 + (2.5 - end[2]) / 2
        )

    def test_c_share_weighs_the_parts_and_one_outlier_is_ignored(self):
        # The C part runs at its reference speed throughout; the bytecode
        # part slows, and one probe was preempted.
        probes = self.probes(range(6), [2, 2, 2, 30, 2, 2], [1, 1, 1, 1, 1, 1])
        gaps = sum(probes[i][0] - probes[i - 1][2] for i in range(1, 6))
        for share, speed_seen in ((1.0, 1.0), (0.5, 1 / 1.5), (0.0, 0.5)):
            meter = speed.SpeedMeter(share)
            meter.probes = probes
            meter._build()
            self.assertAlmostEqual(meter.span(probes[0][2], probes[5][0]), gaps * speed_seen)

    def test_metered_sweep_passes_its_gate(self):
        out = worker.run_sweep(qschur, [SCHUR_4], speed.SpeedMeter(0.5))
        self.assertIsNone(out["ops"][0]["error"])
        self.assertGreater(out["reference_s"], 0)
        self.assertGreater(out["probe_s"], 0)

if __name__ == "__main__":
    unittest.main()
