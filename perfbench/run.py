"""Benchmark of avlprange: one workload per call, checked and measured.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (it imports the package from
``src``).  Workloads: range-dense, range-sparse, bstable (see
``workloads.py``).  The run sets up (import, instance generation,
warm-up), then runs passes over its pool of instances, analyses back to
back, until ``--seconds`` have been spent inside them, checking every
answer between analyses, outside the timed phase.  Each instance's
latency is the median of its analyses in the run, and the analysis
times are reported at the reference host speed of ``calibration.py``,
whose loop runs between analyses all through the run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run spends half its time untraced and half
traced, so the tracing overhead is measured, and its end-to-end numbers
are never reported.  Spans of a traced run go to
``perfbench/_out/trace-<workload>-<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"

#: The seed whose answers must also match ``reference.json``.
DEFAULT_SEED = 0
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5
#: Subprocess probes per traced run (import and start-up times).
PROBE_REPEATS = 3
#: The calibration loop runs once per this many seconds of analysis
#: time.
CALIBRATE_EVERY = 0.2
#: The tail latency is the highest whole percentile of all analyses'
#: latencies, at most ``TAIL_CAP``, with at least ``TAIL_BEYOND``
#: analyses beyond it.
TAIL_BEYOND = 10
TAIL_CAP = 95
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# One thread of load: the matrices are at most 36 x 36, where BLAS
# threads only contend for the few cores with the interpreter.  Set
# before numpy is imported; children inherit it.
INHERITED_ENV = dict(os.environ)
for _variable in BLAS_VARIABLES:
    os.environ[_variable] = "1"

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SourceMissing(Exception):
    pass


def import_package():
    """Import the package from this tree's ``src``."""
    if not (SRC / "avlprange" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC / 'avlprange'}")
    sys.path.insert(0, str(SRC))
    import avlprange

    if Path(avlprange.__file__).resolve().parent != (SRC / "avlprange").resolve():
        raise SourceMissing(f"imported avlprange from {avlprange.__file__}, not from {SRC}")
    return avlprange


def closed_loop(pkg, jobs, seconds: float, analyse, after
                ) -> tuple[list[list[float]], list[float]]:
    """Run passes over ``jobs``, one analysis after another, until a
    whole pass is done and ``seconds`` have been spent inside analyses;
    return the latencies of each job and the calibration loop's times.

    ``after(job index, result or exception)`` runs between analyses,
    outside the timed phase, and so does the calibration loop, once per
    ``CALIBRATE_EVERY`` seconds of analysis time.
    """
    latencies: list[list[float]] = [[] for _ in jobs]
    loops = [calibration.loop()]
    busy = 0.0
    next_loop = CALIBRATE_EVERY
    i = 0
    while busy < seconds or i < len(jobs):
        index = i % len(jobs)
        started = time.perf_counter()
        try:
            result = analyse(pkg, jobs[index])
        except Exception as exc:  # a raising analysis is a counted failure
            result = exc
        latency = time.perf_counter() - started
        latencies[index].append(latency)
        busy += latency
        after(index, result)
        while busy >= next_loop:
            loops.append(calibration.loop())
            next_loop += CALIBRATE_EVERY
        i += 1
    return latencies, loops


class Gate:
    """Correctness gate: counts attempted and failed analyses.

    An analysis fails when it raised, when one of the workload's checks
    fails, when it disagrees with the first analysis of the same
    instance, or with ``reference`` (job key to expected values) when
    one is given.
    """

    def __init__(self, workload, pkg, jobs, reference: dict | None):
        self.workload = workload
        self.pkg = pkg
        self.jobs = jobs
        self.reference = reference
        self.firsts: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, index: int, result) -> None:
        self.attempted += 1
        job = self.jobs[index]
        problems = self._problems(index, job, result)
        if problems:
            self.failed += 1
            self.messages.append(f"{job.key}: {'; '.join(problems)}")

    def _problems(self, index: int, job, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        first = index not in self.firsts
        try:
            problems = self.workload.check(self.pkg, job, result, first)
            summary = workloads.jsonable(self.workload.summary(job, result))
        except Exception as exc:  # a check that cannot run is a failure
            return [f"check raised {type(exc).__name__}: {exc}"]
        if first:
            self.firsts[index] = summary
        elif not _agrees(summary, self.firsts[index]):
            problems.append(f"{summary} differs from the first analysis {self.firsts[index]}")
        if self.reference is not None:
            expected = self.reference.get(job.key)
            if expected is None:
                problems.append("no reference value")
            elif not _agrees(summary, expected):
                problems.append(f"{summary} differs from reference {expected}")
        return problems


def _agrees(values: dict, expected: dict) -> bool:
    return values.keys() == expected.keys() and all(
        workloads.close(values[k], expected[k]) for k in expected)


def typical(latencies: list[list[float]]) -> list[float]:
    """Latency of each instance: the median of its analyses.

    On a shared host the same analysis can take half as long again in
    one spell of a few seconds as in the next; the passes spread each
    instance's analyses over the run, and the median keeps one slow or
    fast spell from setting its latency.
    """
    return [statistics.median(times) for times in latencies if times]


def throughput(typical_s: list[float]) -> float:
    """Analyses per second at the instances' latencies: one analysis of
    every instance, divided by the time they take together."""
    return len(typical_s) / sum(typical_s)


def tail(latencies: list[list[float]]) -> tuple[float, int, int]:
    """Highest whole percentile, at most ``TAIL_CAP``, of all analyses'
    latencies with at least ``TAIL_BEYOND`` of them above it (nearest
    rank); return it, the percentile and the number of analyses.  The
    maximum, as p100, when there are too few analyses."""
    ordered = sorted(t for times in latencies for t in times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    percentile = min(TAIL_CAP, 100 * (n - TAIL_BEYOND) // n)
    return ordered[max(1, math.ceil(percentile * n / 100)) - 1], percentile, n


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        # nproc honours OMP_NUM_THREADS, which the benchmark overrides
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10,
                                   env=INHERITED_ENV).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = len(os.sched_getaffinity(0))
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "blas_threads": {k: os.environ[k] for k in BLAS_VARIABLES},
        "blas_threads_inherited": {k: INHERITED_ENV[k] for k in BLAS_VARIABLES
                                   if k in INHERITED_ENV},
        "commit": commit,
        "seed": seed,
        "load": "one process",
    }


def setup(workload, pkg, seed: int, workdir: Path):
    """Set up ``SETUP_REPEATS`` times; return the last pool and the
    median set-up time.

    One set-up is a fresh interpreter importing the package, then
    building the pool and warming up in this process.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run((sys.executable, "-c", "import avlprange"), env=workloads.child_env(ROOT),
                       check=True, timeout=120)
        jobs = workload.build(pkg, seed, workdir)
        workload.warm_up(pkg, jobs)
        times.append(time.perf_counter() - started)
    return jobs, statistics.median(times)


def probes(workload, pkg, jobs, workdir: Path) -> dict[str, float]:
    """Per-layer numbers measured outside the analysis loop: import time
    and start-up time of the command line, and parse time per file."""
    env = workloads.child_env(ROOT)
    imports = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        subprocess.run((sys.executable, "-c", "import avlprange.cli"), env=env,
                       check=True, timeout=120)
        imports.append(time.perf_counter() - started)

    paths = []
    for i, doc in enumerate(workload.files(jobs)):
        path = workdir / f"parse{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    parse = []
    for _ in range(PROBE_REPEATS):
        for path in paths:
            started = time.perf_counter()
            pkg.problem_io.parse_problem(path)
            parse.append(time.perf_counter() - started)

    # start-up: child wall time not spent inside the command itself
    startups = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        done = subprocess.run((sys.executable, "-m", "avlprange", "check", str(paths[0]),
                               "--format", "json"), env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        startups.append(1e3 * (time.perf_counter() - started)
                        - float(json.loads(done.stdout)["wall_time_ms"]))
    return {
        "problem_io.parse_ms": 1e3 * statistics.median(parse),
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.startup_ms": statistics.median(startups),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            reference: dict | None = None) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and failure messages.

    ``reference`` maps job keys to expected values; by default the
    committed reference applies to the default seed only.
    """
    pkg = import_package()
    if reference is None and seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    workload = workloads.make(name)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs, setup_s = setup(workload, pkg, seed, workdir)
        gate = Gate(workload, pkg, jobs, reference)
        if not trace:
            latencies, loops = closed_loop(pkg, jobs, seconds, workload.analyse, gate)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            typical_s = typical(latencies)
            tail_s, tail_p, analyses = tail(latencies)
            measured = {
                "analyses_per_s": throughput(typical_s),
                "latency_p50_ms": 1e3 * statistics.median(typical_s),
                "latency_tail_ms": 1e3 * tail_s,
            }
            # set-up is mostly a child interpreter starting and importing,
            # which the calibration loop does not resemble: it stays as
            # measured
            slowdown = calibration.slowdown(loops)
            metrics = {
                "analyses_per_s": (measured["analyses_per_s"] * slowdown, "1/s"),
                "latency_p50_ms": (measured["latency_p50_ms"] / slowdown, "ms"),
                "latency_tail_ms": (measured["latency_tail_ms"] / slowdown, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            runs = [len(times) for times in latencies]
            notes = {key: f"measured {value:.6g}" for key, value in measured.items()}
            notes["latency_p50_ms"] += (f"; median of {len(typical_s)} instances, each the "
                                        f"median of {min(runs)} to {max(runs)} analyses")
            notes["latency_tail_ms"] += f"; p{tail_p} of {analyses} analyses"
            notes["host_slowdown"] = (f"{slowdown:.4g}: the calibration loop took "
                                      f"{1e3 * statistics.fmean(loops):.4g} ms on average over "
                                      f"{len(loops)} runs, {1e3 * calibration.REFERENCE_S:.4g} ms "
                                      f"at the reference speed")
            notes["error_rate"] = (f"{gate.failed / gate.attempted:.4g} "
                                   f"({gate.failed} of {gate.attempted})")
        else:
            untraced, _ = closed_loop(pkg, jobs, seconds / 2, workload.analyse, gate)
            # traced results are checked once the wrappers are gone, so
            # the checks leave no spans
            held: list = []
            trace_obj = tracing.Tracer()
            trace_obj.install()
            try:
                traced, _ = closed_loop(pkg, jobs, seconds / 2,
                                     lambda pkg, job: trace_obj.analysis(workload.analyse, pkg, job),
                                     lambda index, result: held.append((index, result)))
            finally:
                trace_obj.uninstall()
            for index, result in held:
                gate(index, result)
            layer = tracing.layer_metrics(trace_obj)
            layer.update(probes(workload, pkg, jobs, workdir))
            layer["trace.overhead"] = throughput(typical(traced)) / throughput(typical(untraced))
            trace_obj.dump(OUT / f"trace-{name}-{seed}.json.gz")
            metrics = {key: (value, tracing.UNITS[key]) for key, value in layer.items()}
            notes = {"trace.overhead": f"traced {sum(map(len, traced))} vs untraced "
                                       f"{sum(map(len, untraced))} analyses"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(f"environment: {json.dumps(environment(seed), sort_keys=True)}")
    print(f"workload {name}, seed {seed}, trace {int(trace)}: {gate.attempted} analyses, "
          f"{gate.failed} failed")
    for key, (value, unit) in metrics.items():
        extra = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:36s} {value:14.6g} {unit}{extra}")
    for key in notes:
        if key not in metrics:
            print(f"  {key:36s} {notes[key]}")
    return result, gate.messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    try:
        result, messages = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    for message in messages[:20]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
