"""One benchmark process: imports qschur, does one sample's work, and prints
one JSON line describing it.

Usage: ``python worker.py '<spec as JSON>'`` with ``spec["mode"]`` one of

- ``probe``: import qschur and stop (set-up time);
- ``cli-import``: import qschur, then ``qschur.cli`` (the CLI's extra cost);
- ``sweep``: run ``verify(theorem, max_n)`` for each ``spec["theorems"]``
  entry ``[theorem, max_n, expected_checked]``;
- ``queries``: run the seeded query stream of ``queries.py`` in the
  segments that stdin asks for, then check every distinct answer.

``spec["trace"]`` wraps the library's layers (``tracing.py``) for the sweep or
query loop; ``spec["meter"]``, if not null, runs a ``speed.SpeedMeter``
with that ``c_share`` over it, and each timing then also comes in the
meter's reference seconds.
The parent puts the checkout's ``src/`` on ``PYTHONPATH`` and measures
set-up from before it starts this process to ``imported_at``; so that this
covers the interpreter and qschur alone, qschur is imported before anything
else the worker needs.
"""

from __future__ import annotations

import itertools
import sys
import time


def monotonic() -> float:
    # The one clock the parent, this process and its speed meter read.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def report_problem(report, theorem: str, max_n: int, expected: int) -> str | None:
    """Why a verify report fails the benchmark's gate, or None."""
    if (report.theorem, report.max_n) != (theorem, max_n):
        return f"report is for {report.theorem} {report.max_n}"
    if report.checked != expected:
        return f"checked {report.checked} instances, expected {expected}"
    if not report.verified or report.disagreements:
        return f"{len(report.disagreements)} disagreements"
    return None


def run_sweep(q, theorems, meter=None) -> dict:
    ops, spans = [], []
    if meter is not None:
        meter.start()
    start = monotonic()
    for theorem, max_n, expected in theorems:
        t0 = monotonic()
        try:
            error = report_problem(q.verify(theorem, max_n), theorem, max_n, expected)
        except Exception as exc:  # every failure is counted, none aborts
            error = repr(exc)
        spans.append((t0, monotonic()))
        ops.append({"theorem": theorem, "seconds": spans[-1][1] - t0, "error": error})
    out = {"ops": ops, "sweep_s": monotonic() - start}
    if meter is not None:
        meter.stop()
        for op, span in zip(ops, spans):
            op["reference_s"] = meter.span(*span)
        out["reference_s"] = meter.span(start, spans[-1][1])
        out["probe_s"] = meter.probe_s()
    return out


class QueryLoop:
    """Closed loop over the seeded query stream, asked in segments; every
    answer is checked by :meth:`finish`.

    Only the first answer to each distinct query is kept (compressed, so
    the kept answers weigh little in the peak RSS); every later answer must
    have the same digest.
    """

    def __init__(self, q, seed: int, meter=None) -> None:
        import queries

        self.q = q
        self.queries = queries
        self.stream = queries.stream(seed)
        self.meter = meter
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.asked: list[tuple] = []
        self.first: dict[tuple, bytes] = {}
        self.digests: dict[tuple, set] = {}
        self.errors: list[str] = []
        self.raised = 0

    def ask(self, count: int) -> None:
        import hashlib
        import zlib

        for kind, source in itertools.islice(self.stream, count):
            t0 = monotonic()
            try:
                text = self.queries.answer(self.q, kind, source)
            except Exception as exc:
                self.raised += 1
                self.errors.append(f"{kind} {source}: {exc!r}")
                continue
            self.spans.append((t0, monotonic()))
            self.latencies.append(self.spans[-1][1] - t0)
            key = (kind, source)
            self.asked.append(key)
            self.digests.setdefault(key, set()).add(hashlib.blake2b(text.encode()).digest())
            if key not in self.first:
                self.first[key] = zlib.compress(text.encode(), 1)

    def finish(self) -> dict:
        """Check every distinct answer.  The latencies returned are those of
        the queries whose answers passed."""
        import zlib
        from collections import Counter

        oracle = self.queries.Oracle(self.q)
        uses = Counter(self.asked)
        failed = self.raised
        wrong = set()
        for key, packed in self.first.items():
            if len(self.digests[key]) > 1:
                problem = f"{len(self.digests[key])} different answers"
            else:
                try:
                    problem = oracle.problem(*key, zlib.decompress(packed).decode())
                except Exception as exc:
                    problem = f"oracle failed: {exc!r}"
            if problem is not None:
                wrong.add(key)
                failed += uses[key]
                self.errors.append(f"{key[0]} {key[1]}: {problem}")
        passed = [k not in wrong for k in self.asked]
        out = {
            "latencies": [t for t, ok in zip(self.latencies, passed) if ok],
            "loop_s": sum(self.latencies),
            "attempted": len(self.latencies) + self.raised,
            "failed": failed,
            "errors": self.errors[:5],
            "distinct": len(self.first),
        }
        if self.meter is not None:
            out["reference"] = [self.meter.span(*s) for s, ok in zip(self.spans, passed) if ok]
            out["probe_s"] = self.meter.probe_s()
        return out


def main() -> None:
    import qschur

    imported_at = monotonic()
    import json
    import resource

    spec = json.loads(sys.argv[1])
    out = {"imported_at": imported_at, "file": qschur.__file__}
    mode = spec["mode"]
    if mode == "cli-import":
        import qschur.cli  # noqa: F401

        out["cli_imported_at"] = monotonic()
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def work_done() -> None:
        # The peak RSS and the trace cover the measured work, not the checks.
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["trace"] = tracer.summary()

    meter = None
    if spec.get("meter") is not None:
        import speed

        meter = speed.SpeedMeter(spec["meter"])
    if mode == "sweep":
        out.update(run_sweep(qschur, spec["theorems"], meter))
        work_done()
    elif mode == "queries":
        # Each stdin line asks for that many more queries; 0 ends the loop.
        loop = QueryLoop(qschur, spec["seed"], meter)
        if meter is not None:
            meter.start()
        for line in sys.stdin:
            if int(line) <= 0:
                break
            loop.ask(int(line))
            print(len(loop.latencies) + loop.raised, flush=True)
        if meter is not None:
            meter.stop()
        work_done()
        out.update(loop.finish())
    else:
        work_done()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
