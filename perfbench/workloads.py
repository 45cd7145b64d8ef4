"""The three workloads: their instance pools, one analysis, and its checks.

Every workload is a closed loop with one client: the next analysis
starts when the previous one returns.  A workload builds a pool of
jobs from the seed and cycles through it; each pool is small enough
that a 35-second run makes two or more passes over it.  Why each
workload exists, and which layer it stresses, is in ``README.md``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import generators

#: Relative agreement required with the committed reference values.
REF_RTOL = 1e-7
#: Slack of the ordering checks, as in the package's own report check.
ORDER_TOL = 1e-9


@dataclass
class Job:
    key: str
    doc: dict | None = None
    problem: object = None
    basis: tuple[int, ...] | None = None


def close(value, expected, rtol: float = REF_RTOL) -> bool:
    """Equality of report values: numbers to ``rtol``, others exactly.

    Infinities may appear as floats or as the strings the command line
    writes.
    """
    value, expected = _number(value), _number(expected)
    if isinstance(expected, float) and isinstance(value, float):
        if math.isinf(expected) or math.isinf(value):
            return value == expected
        return abs(value - expected) <= rtol * (1.0 + abs(expected))
    return value == expected


def _number(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, np.floating)):
        return float(value)
    if value in ("inf", "-inf"):
        return float(value)
    return value


def jsonable(value):
    """Reference values as plain JSON: infinities become strings."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _ordered(low, high) -> bool:
    low, high = _number(low), _number(high)
    return low <= high + ORDER_TOL * (1.0 + abs(high)) if math.isfinite(high) else low <= high


def child_env(root: Path) -> dict:
    """Environment for child interpreters that import the package from
    ``root / "src"``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def instance_files(jobs: list[Job]) -> list[dict]:
    """Problem-file documents of a pool's instances."""
    return [generators.to_json(job.doc) for job in jobs]


def to_problem(pkg, doc: dict):
    return pkg.AvlpProblem(
        A=pkg.IntervalMatrix(*doc["A"]),
        b=pkg.IntervalVector(*doc["b"]),
        c=pkg.IntervalVector(*doc["c"]),
        D=pkg.IntervalMatrix(*doc["D"]),
    )


class RangeWorkload:
    """``full_range`` on box-bounded instances."""

    def __init__(self, name: str, tag: int, sizes: tuple[int, ...], per_size: int,
                 uncertain: int | None):
        self.name = name
        self.tag = tag
        self.sizes = sizes
        self.per_size = per_size
        self.uncertain = uncertain

    def build(self, pkg, seed: int, workdir: Path) -> list[Job]:
        rng = np.random.default_rng([self.tag, seed])
        jobs = []
        for i in range(self.per_size * len(self.sizes)):
            n = self.sizes[i % len(self.sizes)]
            if self.uncertain is None:
                cols = range(n)
            else:
                cols = sorted(rng.choice(n, self.uncertain, replace=False).tolist())
            doc = generators.box_bounded(rng, n, cols)
            jobs.append(Job(key=f"{i}:n{n}", doc=doc, problem=to_problem(pkg, doc)))
        return jobs

    def warm_up(self, pkg, jobs: list[Job]) -> None:
        rng = np.random.default_rng([self.tag, 0, 0])
        pkg.ranges.full_range(to_problem(pkg, generators.box_bounded(rng, 3, range(3))))

    def analyse(self, pkg, job: Job):
        return pkg.ranges.full_range(job.problem)

    def summary(self, job: Job, report) -> dict:
        return {"best": report.best, "worst_lower": report.worst_lower,
                "worst_upper": report.worst_upper, "lower_tight": report.lower_tight}

    def check(self, pkg, job: Job, report, first: bool) -> list[str]:
        if report.errors:
            return [f"analysis errors {report.errors}"]
        values = self.summary(job, report)
        if any(values[k] is None for k in ("best", "worst_lower", "worst_upper")):
            return ["missing value in report"]
        problems = []
        if not (_ordered(report.worst_lower, report.worst_upper)
                and _ordered(report.worst_upper, report.best)):
            problems.append(f"order violated: worst_lower {report.worst_lower}, "
                            f"worst_upper {report.worst_upper}, best {report.best}")
        if first:
            if report.best_witness is None:
                problems.append("no best-case witness")
            else:
                again = report.best_witness.solve().value
                if not close(again, report.best):
                    problems.append(f"best witness re-solves to {again}, report says {report.best}")
        return problems

    files = staticmethod(instance_files)


class BstableWorkload:
    """The basis-stable chain on stable-by-construction instances."""

    name = "bstable"
    tag = 3
    sizes = (4, 8, 12)
    pool = 240
    wide_every = 8

    def build(self, pkg, seed: int, workdir: Path) -> list[Job]:
        rng = np.random.default_rng([self.tag, seed])
        jobs = []
        for i in range(self.pool):
            n = self.sizes[i % len(self.sizes)]
            wide = i % self.wide_every == self.wide_every - 1
            doc, basis = generators.stable_basis(rng, n, wide)
            jobs.append(Job(key=f"{i}:n{n}{':wide' if wide else ''}", doc=doc,
                            problem=to_problem(pkg, doc), basis=basis))
        return jobs

    def warm_up(self, pkg, jobs: list[Job]) -> None:
        rng = np.random.default_rng([self.tag, 0, 0])
        doc, basis = generators.stable_basis(rng, 3, False)
        self.analyse(pkg, Job(key="warm-up", problem=to_problem(pkg, doc), basis=basis))

    def analyse(self, pkg, job: Job):
        stability = pkg.stability
        cert = stability.verify_b_stability(job.problem, job.basis)
        if not cert.status.value.startswith("verified"):
            return cert, None, None
        best = stability.best_case_bstable(job.problem, job.basis, certificate=cert)
        worst = stability.worst_case_bstable(job.problem, job.basis, certificate=cert)
        return cert, best, worst

    def summary(self, job: Job, result) -> dict:
        cert, best, worst = result
        return {"status": cert.status.value, "best": best,
                "worst": None if worst is None else worst[0]}

    def check(self, pkg, job: Job, result, first: bool) -> list[str]:
        cert, best, worst = result
        if best is None:
            return []
        value, x_star, _ = worst
        problems = []
        if not _ordered(value, best):
            problems.append(f"bstable worst {value} above best {best}")
        a_lo, a_hi = job.doc["A"]
        rows = list(job.basis)
        M = 0.5 * (a_lo + a_hi)[rows]
        F = (0.5 * (a_hi - a_lo) - job.doc["D"][0])[rows]
        g = job.doc["b"][0][rows]
        residual = float(np.max(np.abs(M @ x_star + F @ np.abs(x_star) - g)))
        if residual > 1e-8 * (1.0 + float(np.max(np.abs(g)))):
            problems.append(f"square-system residual {residual:.3e} out of contract")
        return problems

    files = staticmethod(instance_files)


def make(name: str):
    if name == "range-dense":
        return RangeWorkload(name, tag=1, sizes=(6, 7, 8), per_size=16, uncertain=None)
    if name == "range-sparse":
        return RangeWorkload(name, tag=2, sizes=(8,), per_size=18, uncertain=3)
    if name == "bstable":
        return BstableWorkload()
    raise ValueError(name)


NAMES = ("range-dense", "range-sparse", "bstable")
