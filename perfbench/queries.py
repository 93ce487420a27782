"""The ``queries`` workload: a seeded stream of single-instance queries and
an independent check of their answers.

The stream is made here, from the seed alone, with the standard library;
qschur only ever receives the generated instances.  A source is a tuple:
``("qs", composition)``, ``("schur", partition)`` or
``("skew", outer, inner)``.  Each query applies one of the CLI's
single-instance commands to a source and serialises the answer to JSON.
"""

from __future__ import annotations

import json
import random

# Query kinds per source type, as the CLI offers them: the Schur-basis
# expansion exists for skew shapes only.
KINDS = {
    "qs": ("expand-f", "expand-m", "check", "witnesses", "tableaux"),
    "schur": ("expand-f", "expand-m", "check", "witnesses", "tableaux"),
    "skew": ("expand-f", "expand-m", "expand-schur", "check", "witnesses", "tableaux"),
}
SIZES = {"qs": range(6, 11), "schur": range(6, 13), "skew": range(5, 9)}
# One round asks every (kind, source type, size) once, in a seeded order, so
# that every run has the same mix of work however far it gets and however
# the seed falls; only the instances differ.
ROUND = tuple((kind, t, n) for t, sizes in SIZES.items() for n in sizes for kind in KINDS[t])
# Share of queries that reuse an earlier source of their type and size; the
# rest draw a fresh one.  Reuse is what the library's memoised engines can
# exploit.
REPEAT_SHARE = 0.5
MAX_INNER = 4


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of ``n`` with parts at most ``cap``."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    ]


def _contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of ``n``, one per set of cuts."""
    out = []
    for mask in range(2 ** (n - 1)):
        cuts = [c for c in range(1, n) if mask >> (c - 1) & 1] + [n]
        out.append(tuple(b - a for a, b in zip([0] + cuts, cuts)))
    return out


def _fresh_skew(rng: random.Random, table: dict[int, list], n: int) -> tuple:
    while True:
        d = rng.randint(0, MAX_INNER)
        outer = rng.choice(table[n + d])
        inner = rng.choice(table[d])
        if _contains(outer, inner):
            return ("skew", outer, inner)


def stream(seed: int):
    """Endless seeded stream of ``(kind, source)`` queries, round by round.

    A fresh composition or partition is dealt, for each query kind, from a
    seeded shuffle of all of them of its size, which is shuffled again when
    it runs out.  So each kind meets each instance about equally often
    whatever the seed, and the seeds differ less in how often the costliest
    instances come up; with independent draws that moved the median round
    by +-10% from seed to seed.  A fresh skew shape is drawn on its own: it
    is cheap, and its population is not uniform.
    """
    rng = random.Random(seed)
    top = max(max(SIZES["schur"]), max(SIZES["skew"]) + MAX_INNER)
    table = {n: partitions(n) for n in range(top + 1)}
    seen: dict[tuple[str, int], list[tuple]] = {}
    decks: dict[tuple[str, str, int], list[tuple]] = {}
    while True:
        for kind, t, n in rng.sample(ROUND, len(ROUND)):
            pool = seen.setdefault((t, n), [])
            if pool and rng.random() < REPEAT_SHARE:
                source = rng.choice(pool)
            elif t == "skew":
                source = _fresh_skew(rng, table, n)
                pool.append(source)
            else:
                deck = decks.get((kind, t, n))
                if not deck:
                    everything = compositions(n) if t == "qs" else table[n]
                    deck = decks[(kind, t, n)] = rng.sample(everything, len(everything))
                source = (t, deck.pop())
                pool.append(source)
            yield kind, source


def answer(q, kind: str, source: tuple) -> str:
    """Run one query through qschur's public API (module ``q``) and return
    its JSON text."""
    if source[0] == "qs":
        tableau_source = tuple(source[1])
        expand = lambda: q.qs_f(tableau_source)  # noqa: E731
    elif source[0] == "schur":
        lam = tuple(source[1])
        tableau_source = q.SkewShape(lam)
        expand = lambda: q.schur_f(lam)  # noqa: E731
    else:
        tableau_source = q.SkewShape(source[1], source[2])
        expand = lambda: q.skew_schur_f(tableau_source)  # noqa: E731
    if kind == "expand-f":
        out = expand().to_json_obj()
    elif kind == "expand-m":
        out = q.f_to_m(expand()).to_json_obj()
    elif kind == "expand-schur":
        out = q.lr_expansion(tableau_source).to_json_obj()
    elif kind == "check":
        e = expand()
        out = {"fmf": q.is_fmf(e), "components": q.f_component_count(e)}
    elif kind == "witnesses":
        out = [
            {
                "degree": d.degree,
                "descents": sorted(d.members),
                "first": a.to_json_obj(),
                "second": b.to_json_obj(),
            }
            for d, a, b in q.multiplicity_witnesses(tableau_source)
        ]
    elif kind == "tableaux":
        if source[0] == "qs":
            tableaux = q.enumerate_sct(tableau_source)
        else:
            tableaux = q.enumerate_syt(tableau_source)
        out = [t.to_json_obj() for t in tableaux]
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return json.dumps(out)


def _composition(n: int, descents) -> tuple[int, ...]:
    cuts = sorted(descents) + [n]
    return tuple(b - a for a, b in zip([0] + cuts, cuts))


def _descents_of_json(rows: list, composition_tableau: bool) -> tuple[int, ...]:
    """Descent set of a serialised standard tableau, read off its cells: i is
    a descent when i+1 sits in a lower row (Young) or a weakly later column
    (composition tableau)."""
    where: dict[int, int] = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v is not None:
                where[v] = c if composition_tableau else r
    n = len(where)
    if sorted(where) != list(range(1, n + 1)):
        raise ValueError(f"not a standard filling: {rows}")
    if composition_tableau:
        return tuple(i for i in range(1, n) if where[i + 1] >= where[i])
    return tuple(i for i in range(1, n) if where[i + 1] > where[i])


class Oracle:
    """Expected answers from plain tableau enumeration, tallied by descent
    set (``des_p``/``des_c``) and cached per source."""

    def __init__(self, q) -> None:
        self.q = q
        self._tallies: dict[tuple, tuple[int, dict]] = {}

    def tally(self, source: tuple) -> tuple[int, dict[tuple[int, ...], int]]:
        """Degree and {descent set: number of standard tableaux}."""
        cached = self._tallies.get(source)
        if cached is not None:
            return cached
        q = self.q
        if source[0] == "qs":
            tableaux, des = q.enumerate_sct(tuple(source[1])), q.des_c
            n = sum(source[1])
        else:
            inner = source[2] if source[0] == "skew" else ()
            tableaux, des = q.enumerate_syt(q.SkewShape(source[1], inner)), q.des_p
            n = sum(source[1]) - sum(inner)
        counts: dict[tuple[int, ...], int] = {}
        for t in tableaux:
            d = tuple(sorted(des(t).members))
            counts[d] = counts.get(d, 0) + 1
        self._tallies[source] = (n, counts)
        return n, counts

    def f_terms(self, source: tuple) -> tuple[int, dict]:
        n, counts = self.tally(source)
        return n, {_composition(n, d): c for d, c in counts.items()}

    def problem(self, kind: str, source: tuple, text: str) -> str | None:
        """Why ``text`` is a wrong answer to the query, or None."""
        try:
            return self._problem(kind, source, json.loads(text))
        except (ValueError, TypeError, KeyError) as exc:
            return f"unreadable answer: {exc!r}"

    def _problem(self, kind: str, source: tuple, obj) -> str | None:
        n, counts = self.tally(source)
        if kind == "expand-f":
            return _expansion_problem(obj, "F", n, self.f_terms(source)[1])
        if kind == "expand-m":
            return _expansion_problem(obj, "M", n, _m_terms(n, counts))
        if kind == "expand-schur":
            total: dict = {}
            for t in obj["terms"]:
                lam = tuple(t["index"])
                if any(a < b for a, b in zip(lam, lam[1:])):
                    return f"schur key {lam} is not a partition"
                for key, c in self.f_terms(("schur", lam))[1].items():
                    total[key] = total.get(key, 0) + c * t["coefficient"]
            if obj["basis"] != "schur" or obj["degree"] != n:
                return f"header {obj['basis']}/{obj['degree']}"
            if total != self.f_terms(source)[1]:
                return "schur terms do not expand to the tableau tally"
            return None
        if kind == "check":
            want = {"fmf": all(c == 1 for c in counts.values()), "components": len(counts)}
            return None if obj == want else f"check {obj} != {want}"
        if kind == "witnesses":
            want = sorted(list(d) for d, c in counts.items() if c >= 2)
            if [w["descents"] for w in obj] != want:
                return "witness descent sets differ from the repeated ones"
            composition_tableau = source[0] == "qs"
            for w in obj:
                pair = (w["first"], w["second"])
                if w["degree"] != n or pair[0] == pair[1]:
                    return f"bad witness pair for {w['descents']}"
                for t in pair:
                    if list(_descents_of_json(t, composition_tableau)) != w["descents"]:
                        return f"witness tableau {t} has other descents"
            return None
        if kind == "tableaux":
            q = self.q
            if source[0] == "qs":
                engine = q.qs_f(tuple(source[1]))
            else:
                inner = source[2] if source[0] == "skew" else ()
                engine = q.skew_schur_f(q.SkewShape(source[1], inner))
            distinct = {json.dumps(t) for t in obj}
            if not len(obj) == len(distinct) == engine.total() == sum(counts.values()):
                return (
                    f"{len(obj)} tableaux ({len(distinct)} distinct), "
                    f"Expansion.total() {engine.total()}"
                )
            return None
        return f"unknown query kind {kind!r}"


def _expansion_problem(obj: dict, basis: str, n: int, want: dict) -> str | None:
    keys = [tuple(t["index"]) for t in obj["terms"]]
    got = {tuple(t["index"]): t["coefficient"] for t in obj["terms"]}
    if obj["basis"] != basis or obj["degree"] != n:
        return f"header {obj['basis']}/{obj['degree']}, expected {basis}/{n}"
    if keys != sorted(keys):
        return "terms are not in lexicographic order"
    if got != want:
        return f"{basis}-terms differ from the tableau tally"
    return None


def _m_terms(n: int, counts: dict) -> dict:
    """M-expansion from descent counts: F_D is the sum of M_S over all
    supersets S of D, walked here as bitmask supersets."""
    full = (1 << (n - 1)) - 1 if n else 0
    acc: dict[int, int] = {}
    for d, c in counts.items():
        mask = 0
        for i in d:
            mask |= 1 << (i - 1)
        free = full & ~mask
        sub = free
        while True:
            acc[mask | sub] = acc.get(mask | sub, 0) + c
            if sub == 0:
                break
            sub = (sub - 1) & free
    return {
        _composition(n, [i + 1 for i in range(n - 1) if m >> i & 1]): c
        for m, c in acc.items()
    }
