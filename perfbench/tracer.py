"""Spans and counts at the package's module boundaries, from outside.

``Tracer.install`` replaces the names one module calls in another
(``avlp._solve_inequality``, ``ranges.solve_gen_avlp``, the regularity
checks as imported by ``stability`` and ``linalg``, ...) with wrappers
that record a span per call; ``uninstall`` puts the originals back.
No package code changes.  A name that a later version of the package
renamed or removed is skipped with a warning, and every per-layer
metric that reads its span is dropped rather than reported wrong.

Spans live in memory as ``[name, start, end, parent, analysis,
outcome]`` lists and are written out once, at the end of a run.  Self
time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name, outcome reader).  Several call sites
# may feed one span name; the name counts as traced only when all of
# them were installed.
WRAPS = (
    ("avlprange.ranges", "full_range", "ranges.full_range", "tightness"),
    ("avlprange.ranges", "best_case", "ranges.best_case", None),
    ("avlprange.ranges", "lower_tightness", "ranges.lower_tightness", None),
    ("avlprange.ranges", "worst_upper_bound", "ranges.worst_upper_bound", None),
    ("avlprange.ranges", "solve_gen_avlp", "avlp.sweep", None),
    ("avlprange.avlp", "_solve_inequality", "simplex.lp", "status"),
    ("avlprange.ranges", "_solve_inequality", "simplex.lp", "status"),
    ("avlprange.stability", "solve_lp", "simplex.lp", "status"),
    ("avlprange.stability", "verify_b_stability", "stability.verify", "status"),
    ("avlprange.stability", "best_case_bstable", "stability.best", None),
    ("avlprange.stability", "worst_case_bstable", "stability.worst", None),
    ("avlprange.stability", "enclose_interval_solution", "linalg.enclose", None),
    ("avlprange.stability", "solve_square", "linalg.solve_square", None),
    ("avlprange.stability", "interval_matvec", "intervals.matvec", None),
    ("avlprange.stability", "beeck_regular", "intervals.beeck", None),
    ("avlprange.linalg", "beeck_regular", "intervals.beeck", None),
    ("avlprange.stability", "rex_rohn_regular", "intervals.rex_rohn", None),
    ("avlprange.linalg", "rex_rohn_regular", "intervals.rex_rohn", None),
)

#: Wrapped only to count calls: a span per pivot would cost more than
#: the pivot.
PIVOT = ("avlprange.simplex", "_pivot")

ANALYSIS = "analysis"

#: Unit of every per-layer metric, including those the benchmark
#: measures outside the spans (``problem_io``, ``cli``, ``trace``).
UNITS = {
    "simplex.lps": "count",
    "simplex.pivots_per_lp": "count",
    "simplex.us_per_lp": "us",
    "simplex.share": "ratio",
    "avlp.orthants": "count",
    "avlp.feasible_orthant_ratio": "ratio",
    "avlp.self_us_per_orthant": "us",
    "avlp.share": "ratio",
    "ranges.best_case_ms": "ms",
    "ranges.worst_lower_ms": "ms",
    "ranges.lower_tightness_ms": "ms",
    "ranges.worst_upper_ms": "ms",
    "ranges.tightness_calls": "count",
    "ranges.upper_iterations": "count",
    "ranges.lower_tight_ratio": "ratio",
    "stability.verify_ms": "ms",
    "stability.best_ms": "ms",
    "stability.worst_ms": "ms",
    "stability.verified_ratio": "ratio",
    "stability.gave_linear_solves": "count",
    "linalg.enclose_ms": "ms",
    "linalg.enclose_calls": "count",
    "linalg.share": "ratio",
    "intervals.regularity_ms": "ms",
    "intervals.rex_rohn_fallback_ratio": "ratio",
    "intervals.share": "ratio",
    "problem_io.parse_ms": "ms",
    "cli.import_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead": "ratio",
}


def _outcome(kind, value):
    if kind == "status":
        status = getattr(value, "status", None)
        return getattr(status, "value", None)
    if kind == "tightness":
        return bool(getattr(value, "lower_tight", False))
    return None


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self.pivots = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._analysis = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, kind):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self._analysis, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if kind is not None:
                record[5] = _outcome(kind, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_pivots(self, fn):
        def wrapper(*args, **kwargs):
            self.pivots += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, module_name: str, attr: str, make) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def install(self) -> None:
        for module_name, attr, name, kind in WRAPS:
            ok = self._replace(module_name, attr, lambda fn, n=name, k=kind: self._wrap(n, fn, k))
            if not ok:
                self.missing.add(name)
                print(f"warning: {module_name}.{attr} not found; dropping metrics "
                      f"that read span {name}", file=sys.stderr)
        if not self._replace(*PIVOT, self._count_pivots):
            self.missing.add("simplex.pivot")
            print(f"warning: {'.'.join(PIVOT)} not found; dropping pivot counts",
                  file=sys.stderr)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def analysis(self, fn, *args, **kwargs):
        """Run one analysis under a root span and return its result."""
        self._analysis += 1
        return self._wrap(ANALYSIS, fn, None)(*args, **kwargs)

    def dump(self, path) -> None:
        """Write the spans as gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"pivots": self.pivots, "missing": sorted(self.missing),
                       "fields": ["name", "start", "end", "parent", "analysis", "outcome"],
                       "spans": self.spans}, out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_ms(durations: list[float]) -> float:
    return 1e3 * statistics.fmean(durations) if durations else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, keyed by metric name.

    A metric whose spans could not all be installed is left out.
    """
    spans = tracer.spans
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        count[name] += 1
        total[name] += end - start
        durations[name].append(end - start)
        self_time[name] += end - start - child_time[i]

    def parent_name(i: int) -> str | None:
        parent = spans[i][3]
        return spans[parent][0] if parent >= 0 else None

    def has_ancestor(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def layer_self(layer: str) -> float:
        return sum(t for name, t in self_time.items() if name.split(".")[0] == layer)

    lps = [i for i, s in enumerate(spans) if s[0] == "simplex.lp"]
    orthants = [i for i in lps if parent_name(i) == "avlp.sweep"]
    feasible = [i for i in orthants if spans[i][5] in ("optimal", "unbounded")]
    lower_sweeps = [i for i, s in enumerate(spans)
                    if s[0] == "avlp.sweep" and parent_name(i) == "ranges.full_range"]
    upper_sweeps = [i for i, s in enumerate(spans)
                    if s[0] == "avlp.sweep" and parent_name(i) == "ranges.worst_upper_bound"]
    tight = [s for s in spans if s[0] == "ranges.full_range"]
    verify = [s for s in spans if s[0] == "stability.verify"]
    gave_solves = [i for i, s in enumerate(spans)
                   if s[0] == "linalg.solve_square" and has_ancestor(i, "stability.worst")]
    regularity = durations["intervals.beeck"] + durations["intervals.rex_rohn"]

    analyses = count[ANALYSIS]
    busy = total[ANALYSIS]
    per = 1.0 / analyses if analyses else 0.0
    candidates = {
        "simplex.lps": (len(lps) * per, {"simplex.lp"}),
        "simplex.pivots_per_lp": (_ratio(tracer.pivots, len(lps)), {"simplex.lp", "simplex.pivot"}),
        "simplex.us_per_lp": (1e6 * _ratio(self_time["simplex.lp"], len(lps)), {"simplex.lp"}),
        "simplex.share": (_ratio(layer_self("simplex"), busy), {"simplex.lp"}),
        "avlp.orthants": (len(orthants) * per, {"simplex.lp", "avlp.sweep"}),
        "avlp.feasible_orthant_ratio": (_ratio(len(feasible), len(orthants)),
                                        {"simplex.lp", "avlp.sweep"}),
        "avlp.self_us_per_orthant": (1e6 * _ratio(self_time["avlp.sweep"], len(orthants)),
                                     {"simplex.lp", "avlp.sweep"}),
        "avlp.share": (_ratio(layer_self("avlp"), busy), {"avlp.sweep"}),
        "ranges.best_case_ms": (1e3 * total["ranges.best_case"] * per, {"ranges.best_case"}),
        "ranges.worst_lower_ms": (1e3 * sum(spans[i][2] - spans[i][1] for i in lower_sweeps) * per,
                                  {"ranges.full_range", "avlp.sweep"}),
        "ranges.lower_tightness_ms": (1e3 * total["ranges.lower_tightness"] * per,
                                      {"ranges.lower_tightness"}),
        "ranges.worst_upper_ms": (1e3 * total["ranges.worst_upper_bound"] * per,
                                  {"ranges.worst_upper_bound"}),
        "ranges.tightness_calls": (count["ranges.lower_tightness"] * per,
                                   {"ranges.lower_tightness"}),
        "ranges.upper_iterations": (len(upper_sweeps) * per,
                                    {"ranges.worst_upper_bound", "avlp.sweep"}),
        "ranges.lower_tight_ratio": (_ratio(sum(1 for s in tight if s[5]), len(tight)),
                                     {"ranges.full_range"}),
        "stability.verify_ms": (_mean_ms(durations["stability.verify"]), {"stability.verify"}),
        "stability.best_ms": (_mean_ms(durations["stability.best"]), {"stability.best"}),
        "stability.worst_ms": (_mean_ms(durations["stability.worst"]), {"stability.worst"}),
        "stability.verified_ratio": (
            _ratio(sum(1 for s in verify if str(s[5]).startswith("verified")), len(verify)),
            {"stability.verify"}),
        "stability.gave_linear_solves": (_ratio(len(gave_solves), count["stability.worst"]),
                                         {"stability.worst", "linalg.solve_square"}),
        "linalg.enclose_ms": (_mean_ms(durations["linalg.enclose"]), {"linalg.enclose"}),
        "linalg.enclose_calls": (count["linalg.enclose"] * per, {"linalg.enclose"}),
        "linalg.share": (_ratio(layer_self("linalg"), busy),
                         {"linalg.enclose", "linalg.solve_square"}),
        "intervals.regularity_ms": (_mean_ms(regularity), {"intervals.beeck", "intervals.rex_rohn"}),
        "intervals.rex_rohn_fallback_ratio": (
            _ratio(count["intervals.rex_rohn"], count["intervals.beeck"]),
            {"intervals.beeck", "intervals.rex_rohn"}),
        "intervals.share": (_ratio(layer_self("intervals"), busy),
                            {"intervals.beeck", "intervals.rex_rohn", "intervals.matvec"}),
    }
    return {name: value for name, (value, needs) in candidates.items()
            if not needs & tracer.missing}
