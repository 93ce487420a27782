"""qschur benchmark: cold ``verify`` sweeps and a single-instance query stream.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload young-sweep --seed 1 --seconds 36 --trace 0

Workloads (one client, closed loop, no threads):

- ``young-sweep``: ``verify("skew", 8)`` then ``verify("schur", 13)``;
- ``qs-sweep``: ``verify("two-part", 18)``, ``verify("qs-components", 11)``
  and ``verify("families", 11)``;
- ``queries``: a seeded stream of single-instance queries (``queries.py``).

Every sweep sample starts a fresh interpreter, because a ``qschur verify``
user pays cold module-level memos on every run; the query stream runs in one
long-lived interpreter, so repeated instances meet warm memos.  qschur is
imported from the checkout's ``src/`` through ``PYTHONPATH``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, from
untraced processes only; sample times are in the reference seconds of
``speed.py``, which take the shared host's slow spells out.  With ``--trace 1`` it holds the per-layer metrics
of a separate traced run (``tracing.py``).  Every answer is checked; a
failed check counts in ``failed`` and its time is left out of the metrics.
The line before it is a JSON run record (machine, seed, the imported
``qschur.__file__``, load average, and the user-facing numbers that
``BENCHMARK.json`` does not gate); stderr gets a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import queries
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# (theorem, max_n, instances verify must report as checked)
SWEEPS = {
    "young-sweep": (("skew", 8, 3909), ("schur", 13, 372)),
    "qs-sweep": (("two-part", 18, 153), ("qs-components", 11, 2047), ("families", 11, 194)),
}
WORKLOADS = (*SWEEPS, "queries")
# The share of each workload's work, and of set-up, that a slow spell slows
# like C-level set building rather than like bytecode (speed.py): the weight
# under which repeated identical samples read most alike.
C_SHARE = {"young-sweep": 0.0, "qs-sweep": 1.0, "queries": 0.4, "setup": 0.0}
MIN_SWEEPS = 3
# A sample of the queries workload is one round of the stream (every kind,
# source type and size once).  A run asks QUERY_SEGMENTS segments of
# QUERY_SEGMENT queries (the traced run one segment).  Later rounds cost a
# little more than early ones, so every run asks for the same number; only
# a host far slower than usual meets the safety net of starting no segment
# after QUERY_DEADLINE of --seconds.
QUERY_SAMPLE = len(queries.ROUND)
QUERY_SEGMENT = 12 * QUERY_SAMPLE
QUERY_SEGMENTS = 8
QUERY_DEADLINE = 0.75
# Set-up probes and cold CLI runs after each sweep and each segment of
# queries.  The speed of a shared host can switch between levels
# about 1.45x apart for anything from a second to minutes, so probes are
# spread over the run, and the CLI time is the fastest of its identical
# repeats (README.md).
PROBES_PER_SWEEP = 3
PROBES_PER_QUERY_SEGMENT = 2
CLI_IMPORT_PROBES = 5
# Tiny CLI commands with their exit code and JSON answer, run alternately.
CLI_CHECKS = (
    (["check", "--kind", "qs", "--composition", "1,3"], 0, {"fmf": True, "components": 2}),
    (
        ["check", "--kind", "skew", "--outer", "3,2,1", "--inner", "2,1"],
        1,
        {"fmf": False, "components": 4},
    ),
)
HARD_LIMIT_S = 170  # every worker is stopped before the run reaches this


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Counts, errors and raw samples of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = monotonic()
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            # Same hash seed in every worker, so equal inputs run equal code
            # paths; qschur's output does not depend on it.
            PYTHONHASHSEED="0",
        )
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.cli_s: list[float] = []
        self.qschur_file: str | None = None
        self.raw: dict[str, list[float]] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def time_left(self) -> float:
        return self.start + HARD_LIMIT_S - monotonic()

    def worker(self, spec: dict) -> dict | None:
        """Run one worker; what it reports gets ``started_at``, the clock
        reading before it started.  A worker that breaks counts as one failed
        operation; the caller counts the operations of one that reports."""
        t0 = monotonic()
        try:
            proc = subprocess.run(
                self._worker_command(spec),
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.time_left()),
            )
        except subprocess.TimeoutExpired:
            return self._report(spec, t0, None, "")
        return self._report(spec, t0, proc.returncode, proc.stdout)

    @staticmethod
    def _worker_command(spec: dict) -> list[str]:
        return [sys.executable, str(WORKER), json.dumps(spec)]

    def _report(self, spec: dict, t0: float, code: int | None, stdout: str) -> dict | None:
        lines = stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1]) if code == 0 else None
        except (ValueError, IndexError):
            out = None
        if out is None:
            self.attempted += 1
            why = "timed out" if code is None else f"exited with {code}"
            self.fail(f"{spec['mode']} worker {why}")
            return None
        out["started_at"] = t0
        self.qschur_file = out["file"]
        return out

    def probes(self, count: int) -> None:
        """``count`` set-up probes and ``count`` cold CLI runs.  Runs spread
        them between samples, because the host's speed shifts within
        seconds and a burst of probes would see only one moment of it.

        The set-up probes inherit this process's core while a speed meter
        runs on it, so set-up time is in reference seconds too."""
        meter = speed.SpeedMeter(C_SHARE["setup"])
        meter.start()
        try:
            spans = []
            for _ in range(count):
                out = self.worker({"mode": "probe"})
                if out is not None:
                    self.attempted += 1
                    spans.append((out["started_at"], out["imported_at"]))
        finally:
            meter.stop()
        self.setup_s += [meter.span(*span) for span in spans]
        self.setup_wall_s += [end - begin for begin, end in spans]
        for _ in range(count):
            args, code, answer = CLI_CHECKS[self.attempted % len(CLI_CHECKS)]
            command = [sys.executable, "-m", "qschur.cli", *args, "--format", "json"]
            self.attempted += 1
            t0 = monotonic()
            try:
                proc = subprocess.run(
                    command,
                    cwd=ROOT,
                    env=self.env,
                    stdout=subprocess.PIPE,
                    text=True,
                    timeout=max(1.0, self.time_left()),
                )
                ok = proc.returncode == code and json.loads(proc.stdout) == answer
            except (subprocess.TimeoutExpired, ValueError):
                proc, ok = None, False
            if ok:
                self.cli_s.append(monotonic() - t0)
            else:
                got = "timed out" if proc is None else f"exit {proc.returncode}, {proc.stdout!r}"
                self.fail(f"cli {' '.join(args)}: {got}")

    def sweep(self, trace: bool, meter: float | None = None) -> dict | None:
        spec = {"mode": "sweep", "theorems": SWEEPS[self.workload], "trace": trace, "meter": meter}
        out = self.worker(spec)
        if out is None:
            return None
        ok = True
        for op in out["ops"]:
            self.attempted += 1
            if op["error"] is not None:
                self.fail(f"verify {op['theorem']}: {op['error']}")
                ok = False
        return out if ok else None

    def queries(
        self,
        segments: int,
        trace: bool,
        meter: float | None = None,
        deadline: float | None = None,
        between=None,
    ) -> dict | None:
        """One long-lived worker answers ``segments`` segments of
        ``QUERY_SEGMENT`` queries, fewer if ``deadline`` passes; ``between``
        runs after each segment while the worker waits."""
        spec = {"mode": "queries", "seed": self.seed, "trace": trace, "meter": meter}
        t0 = monotonic()
        proc = subprocess.Popen(
            self._worker_command(spec),
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(max(1.0, self.time_left()), proc.kill)
        watchdog.start()
        try:
            for _ in range(segments):
                proc.stdin.write(f"{QUERY_SEGMENT}\n")
                proc.stdin.flush()
                if not proc.stdout.readline():
                    break
                if between is not None:
                    between()
                if deadline is not None and monotonic() > deadline:
                    break
            stdout, _ = proc.communicate("0\n")
        except OSError:  # the worker died; its exit code tells why
            stdout = ""
            proc.kill()
            proc.wait()
        finally:
            watchdog.cancel()
        code = None if proc.returncode == -signal.SIGKILL else proc.returncode
        out = self._report(spec, t0, code, stdout)
        if out is None:
            return None
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors.extend(out["errors"])
        return out


def median(values: list[float]) -> float:
    if not values:
        raise SystemExit("no successful sample to measure")
    return statistics.median(values)


def fastest(values: list[float]) -> float:
    if not values:
        raise SystemExit("no successful sample to measure")
    return min(values)


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def rounds(latencies: list[float]) -> list[float]:
    """Times of the whole rounds of the query stream."""
    return [
        sum(latencies[i : i + QUERY_SAMPLE])
        for i in range(0, len(latencies) - QUERY_SAMPLE + 1, QUERY_SAMPLE)
    ]


def timed_run(run: Run) -> tuple[dict, dict]:
    """End-to-end metrics and the ungated report of an untraced run.

    ``sample_s`` is in the reference seconds of ``speed.py``; the plain
    wall time is in the report as ``sample_wall_s``."""
    report: dict = {}
    deadline = run.start + run.seconds
    if run.workload in SWEEPS:
        samples, wall, probe, rss, walls = [], [], [], [], []
        per_theorem: dict[str, list[float]] = {}
        while len(walls) < MIN_SWEEPS or monotonic() + max(walls) <= deadline:
            t0 = monotonic()
            out = run.sweep(trace=False, meter=C_SHARE[run.workload])
            run.probes(PROBES_PER_SWEEP)
            walls.append(monotonic() - t0)
            if out is None:
                continue
            samples.append(out["reference_s"])
            wall.append(out["sweep_s"])
            probe.append(out["probe_s"])
            rss.append(out["rss_kb"] / 1024)
            for op in out["ops"]:
                per_theorem.setdefault(op["theorem"], []).append(op["reference_s"])
        report["sweep_s"] = (median(samples), "s")
        report["sweeps"] = (len(samples), "count")
        for theorem, values in per_theorem.items():
            report[f"verify.{theorem}_s"] = (median(values), "s")
        peak = median(rss)
    else:
        # Probes between segments of queries, as between sweeps; the answers
        # are checked after the last segment, in about a third as long.
        run.probes(PROBES_PER_SWEEP)
        out = run.queries(
            QUERY_SEGMENTS,
            trace=False,
            meter=C_SHARE[run.workload],
            deadline=run.start + run.seconds * QUERY_DEADLINE,
            between=lambda: run.probes(PROBES_PER_QUERY_SEGMENT),
        )
        if out is None:
            raise SystemExit("the query stream broke")
        lat = out["reference"]
        samples, wall, probe = rounds(lat), rounds(out["latencies"]), [out["probe_s"]]
        peak = out["rss_kb"] / 1024
        report["query_ms_p50"] = (median(lat) * 1e3, "ms")
        report["query_ms_p99"] = (percentile(lat, 0.99) * 1e3, "ms")
        report["queries_per_s"] = (len(lat) / sum(lat), "1/s")
        report["queries"] = (len(lat), "count")
        report["distinct_queries"] = (out["distinct"], "count")
    report["sample_wall_s"] = (median(wall), "s")
    report["setup_wall_s"] = (median(run.setup_wall_s), "s")
    report["probe_ms"] = (median(probe) * 1e3, "ms")
    run.raw = {
        "sample_s": samples,
        "sample_wall_s": wall,
        "probe_ms": [p * 1e3 for p in probe],
        "setup_s": run.setup_s,
        "setup_wall_s": run.setup_wall_s,
        "cli_cold_s": run.cli_s,
    }
    # Identical cold starts: the fastest is the one the host slowed least.
    report["cli_cold_ms"] = (fastest(run.cli_s) * 1e3, "ms")
    metrics = {
        "setup_s": (median(run.setup_s), "s"),
        "sample_s": (median(samples), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, report


def traced_run(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics: traced and untraced twins of the same work, both
    timed in reference seconds for ``trace.overhead_s``."""
    cli_import = []
    for _ in range(CLI_IMPORT_PROBES):
        out = run.worker({"mode": "cli-import"})
        if out is not None:
            run.attempted += 1
            cli_import.append(out["cli_imported_at"] - out["imported_at"])
    plain, traced, summaries = [], [], []
    deadline = run.start + run.seconds
    if run.workload in SWEEPS:
        walls: list[float] = []
        while not walls or monotonic() + max(walls) <= deadline:
            t0 = monotonic()
            share = C_SHARE[run.workload]
            twins = run.sweep(trace=False, meter=share), run.sweep(trace=True, meter=share)
            walls.append(monotonic() - t0)
            if None not in twins:
                plain.append(twins[0]["reference_s"])
                traced.append(twins[1]["reference_s"])
                summaries.append(twins[1]["trace"])
    else:
        share = C_SHARE[run.workload]
        twins = run.queries(1, trace=False, meter=share), run.queries(1, trace=True, meter=share)
        if None not in twins:
            plain.append(sum(twins[0]["reference"]))
            traced.append(sum(twins[1]["reference"]))
            summaries.append(twins[1]["trace"])
    if not summaries:
        raise SystemExit("no traced sample succeeded")
    metrics = tracing.layer_metrics(tracing.merge(summaries), len(summaries))
    metrics["cli.import_s"] = (median(cli_import), "s")
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    report = {"traced_samples": (len(summaries), "count")}
    return metrics, report


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qschur" / "__init__.py").is_file():
        print(f"error: no qschur package under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    run = Run(args.workload, args.seed, args.seconds)
    metrics, report = (traced_run if args.trace else timed_run)(run)
    report["failed_ratio"] = (run.failed / max(1, run.attempted), "ratio")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "qschur_file": run.qschur_file,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "wall_s": monotonic() - run.start,
        "errors": run.errors[:10],
        "raw": run.raw,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name:40s} {value:14.6f} {unit}", file=sys.stderr)
    for error in run.errors[:10]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
