"""Layer tracing for the benchmark, applied from outside the library.

:func:`install` replaces a fixed list of qschur's public functions, at every
place a qschur module binds them, with wrappers that record one span per
call; ``Expansion``'s constructor and serialisers are wrapped on the class.
Names that no longer exist are skipped, so the tracer keeps working when the
library drops or rewrites internals: only public names are touched.

Spans stay in memory.  :meth:`Tracer.summary` folds them into per-name
totals once the traced work is over, and :func:`layer_metrics` turns the
totals of one or more processes into the ``<module>.<function>.<stat>``
metrics that ``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

clock = time.perf_counter

# (module, attribute) of every wrapped function; the span name is
# "<module>.<attribute>".
FUNCTIONS = (
    ("compositions", "rearrangements"),
    ("compositions", "enumerate_partitions"),
    ("compositions", "enumerate_compositions"),
    ("compositions", "refinements"),
    ("shapes", "enumerate_skew_shapes"),
    ("classify", "verify"),
    ("classify", "brute_family_fmf"),
    ("classify", "predict_skew"),
    ("classify", "predict_schur"),
    ("classify", "predict_two_part"),
    ("classify", "predict_qs_components"),
    ("classify", "predict_family"),
    ("qsym", "skew_schur_f"),
    ("qsym", "schur_f"),
    ("qsym", "qs_f"),
    ("qsym", "is_fmf"),
    ("qsym", "multiplicity_witnesses"),
    ("qsym", "f_to_m"),
    ("young", "enumerate_syt"),
    ("young", "lr_expansion"),
    ("ctableaux", "enumerate_sct"),
)
EXPANSION_METHODS = ("__init__", "to_json_obj", "to_text")
ENGINES = ("qsym.skew_schur_f", "qsym.schur_f", "qsym.qs_f")
PREDICT_OTHER = (
    "classify.predict_schur",
    "classify.predict_two_part",
    "classify.predict_qs_components",
    "classify.predict_family",
)
# What a span keeps of its result: only the number the summary needs, so
# tracing does not keep results alive.
_KEEP = {
    "classify.verify": lambda report: report.checked,
    "classify.brute_family_fmf": bool,
    "qsym.is_fmf": bool,
    "qsym.multiplicity_witnesses": len,
    **{name: (lambda e: e.total()) for name in ENGINES},
}
# Spans reported as <name>.busy_s, <name>.calls and <name>.items.
BUSY = (
    "compositions.rearrangements",
    "compositions.enumerate_partitions",
    "compositions.enumerate_compositions",
    "compositions.refinements",
    "shapes.enumerate_skew_shapes",
    "classify.predict_skew",
    "qsym.skew_schur_f",
    "qsym.schur_f",
    "qsym.qs_f",
    "qsym.multiplicity_witnesses",
    "qsym.f_to_m",
    "young.enumerate_syt",
    "young.lr_expansion",
    "ctableaux.enumerate_sct",
)
CALLS = ("compositions.rearrangements", "qsym.skew_schur_f", "qsym.schur_f", "qsym.qs_f")
ITEMS = (
    "compositions.rearrangements",
    "shapes.enumerate_skew_shapes",
    "young.enumerate_syt",
    "ctableaux.enumerate_sct",
)


class Span:
    __slots__ = ("name", "parent", "busy", "self_time", "items", "value")

    def __init__(self, name: str, parent: str | None) -> None:
        self.name = name
        self.parent = parent
        self.busy = 0.0
        self.self_time = 0.0
        self.items = 0
        self.value = None


class Tracer:
    """Records the spans of the wrapped functions in one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._frames: list[list] = []  # [span, start, time spent in children]
        self._open: set[str] = set()
        self._seen_args: set = set()
        self._repeats = 0

    def _begin(self, name: str) -> Span:
        parent = self._frames[-1][0].name if self._frames else None
        self._open.add(name)
        return Span(name, parent)

    def _enter(self, span: Span) -> None:
        self._frames.append([span, clock(), 0.0])

    def _leave(self) -> None:
        span, start, children = self._frames.pop()
        elapsed = clock() - start
        span.busy += elapsed
        span.self_time += elapsed - children
        if self._frames:
            self._frames[-1][2] += elapsed

    def _end(self, span: Span, result=None, arg=None) -> None:
        self._open.discard(span.name)
        if isinstance(result, list):
            span.items = len(result)
        keep = _KEEP.get(span.name)
        if keep is not None and result is not None:
            span.value = keep(result)
        if span.name in ENGINES and result is not None:
            key = (span.name, repr(tuple(arg) if isinstance(arg, list) else arg))
            self._repeats += key in self._seen_args
            self._seen_args.add(key)
        self.spans.append(span)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:
                # A recursive call: the outer span already covers it.
                return fn(*args, **kwargs)
            span = self._begin(name)
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave()
                self._end(span)
                raise
            self._leave()
            if inspect.isgenerator(result):
                # A generator does its work in next(), so time every step.
                return self._steps(result, span)
            self._end(span, result, args[0] if args else None)
            return result

        return traced

    def wrap_init(self, init, name: str):
        """Constructor wrapper whose span keeps the number of terms built."""

        @functools.wraps(init)
        def traced(obj, *args, **kwargs):
            span = self._begin(name)
            self._enter(span)
            try:
                init(obj, *args, **kwargs)
            finally:
                self._leave()
                self._end(span)
            span.value = len(obj)

        return traced

    def _steps(self, gen, span: Span):
        try:
            while True:
                self._enter(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave()
                span.items += 1
                yield item
        finally:
            gen.close()
            self._end(span)

    def summary(self) -> dict:
        """Per-name totals plus the derived counters, as plain JSON data."""
        names: dict[str, dict] = {}
        c = dict.fromkeys(
            ("checked", "fmf_tested", "fmf_found", "tableaux_counted",
             "engine_outer_busy", "engine_calls", "witness_pairs", "terms"),
            0,
        )
        c["engine_repeats"] = self._repeats
        for s in self.spans:
            row = names.setdefault(
                s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0}
            )
            row["self_s"] += s.self_time
            row["calls"] += 1
            row["busy_s"] += s.busy
            row["items"] += s.items
            if s.value is None:
                continue
            if s.name == "classify.verify":
                c["checked"] += s.value
            elif s.name in ("qsym.is_fmf", "classify.brute_family_fmf"):
                # One truth per instance: the calls verify makes itself.
                if s.parent == "classify.verify":
                    c["fmf_tested"] += 1
                    c["fmf_found"] += s.value
            elif s.name in ENGINES:
                c["engine_calls"] += 1
                if s.parent not in ENGINES:
                    c["tableaux_counted"] += s.value
                    c["engine_outer_busy"] += s.busy
            elif s.name == "qsym.multiplicity_witnesses":
                c["witness_pairs"] += s.value
            elif s.name == "expansion.Expansion.__init__":
                c["terms"] += s.value
        return {"names": names, "counters": c}


def install(tracer: Tracer) -> None:
    """Wrap the listed public functions wherever a qschur module binds them."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qschur"]
    for module_name, attr in FUNCTIONS:
        original = getattr(sys.modules.get(f"qschur.{module_name}"), attr, None)
        if original is None:
            continue
        traced = tracer.wrap(original, f"{module_name}.{attr}")
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    cls = getattr(sys.modules.get("qschur.expansion"), "Expansion", None)
    for method in EXPANSION_METHODS if cls is not None else ():
        original = cls.__dict__.get(method)
        if original is None:
            continue
        name = f"expansion.Expansion.{method}"
        wrap = tracer.wrap_init if method == "__init__" else tracer.wrap
        setattr(cls, method, wrap(original, name))


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    names: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, row in summary["names"].items():
            acc = names.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
        for k, v in summary["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"names": names, "counters": counters}


def layer_metrics(summary: dict, per: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of ``summary``, each divided by ``per`` (the
    number of traced samples it sums), except the ratios."""
    names = summary["names"]
    c = summary["counters"]

    def stat(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0) / per

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in BUSY:
        out[f"{name}.busy_s"] = (stat(name, "busy_s"), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in ITEMS:
        out[f"{name}.items"] = (stat(name, "items"), "count")
    out["classify.predict_other.busy_s"] = (sum(stat(n, "busy_s") for n in PREDICT_OTHER), "s")
    out["classify.verify.self_s"] = (stat("classify.verify", "self_s"), "s")
    out["classify.checked"] = (c["checked"] / per, "count")
    out["classify.fmf_ratio"] = (ratio(c["fmf_found"], c["fmf_tested"]), "ratio")
    out["qsym.tableaux_counted"] = (c["tableaux_counted"] / per, "count")
    out["qsym.tableaux_per_s"] = (ratio(c["tableaux_counted"], c["engine_outer_busy"]), "1/s")
    out["qsym.repeat_ratio"] = (ratio(c["engine_repeats"], c["engine_calls"]), "ratio")
    out["qsym.multiplicity_witnesses.pairs"] = (c["witness_pairs"] / per, "count")
    init = "expansion.Expansion.__init__"
    out["expansion.Expansion.busy_s"] = (stat(init, "busy_s"), "s")
    out["expansion.Expansion.calls"] = (stat(init, "calls"), "count")
    out["expansion.terms"] = (c["terms"] / per, "count")
    out["expansion.serialise.busy_s"] = (
        stat("expansion.Expansion.to_json_obj", "busy_s")
        + stat("expansion.Expansion.to_text", "busy_s"),
        "s",
    )
    return out
