"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one second (at least one pass over its pool)
with the default seed, untraced and traced, and checks that each
end-to-end metric of ``BENCHMARK.json`` is printed once with its unit,
that each per-layer metric appears in the traced output, and that no analysis fails, the committed reference
included.  Then checks that a corrupted reference value
is reported as a failure, and that the benchmark exits with an error,
printing no result, in a tree that holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import warnings

import run
import workloads

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run((sys.executable, "perfbench/run.py", *args), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_output(name: str, trace: int, errors: list[str]) -> None:
    done = bench("--workload", name, "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
                 "--trace", str(trace))
    where = f"{name} --trace {trace}"
    if done.returncode != 0:
        errors.append(f"{where}: exit code {done.returncode}: {done.stderr[-500:]}")
        return
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} analyses failed: "
                      f"{done.stderr[-500:]}")
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        errors.append(f"{where}: metrics {sorted(result['metrics'])}")
    for metric in expected:
        key, unit = metric["name"], metric["unit"]
        shown = [line for line in lines[:-1] if line.split()[:1] == [key]]
        if len(shown) != 1 or shown[0].split()[2] != unit:
            errors.append(f"{where}: {key} printed as {shown}, expected once with unit {unit}")
        value = result["metrics"].get(key)
        if value is None or value["unit"] != unit:
            errors.append(f"{where}: {key} in result as {value}")
    if not trace and not any(line.split()[:1] == ["error_rate"] for line in lines):
        errors.append(f"{where}: error_rate not printed")


def check_corrupted_reference(errors: list[str]) -> None:
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["bstable"]
    key = next(k for k, v in reference.items() if v["status"].startswith("verified"))
    corrupted = dict(reference)
    corrupted[key] = dict(reference[key], best=reference[key]["best"] * (1 + 1e-6) + 1e-6)
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result, messages = run.measure("bstable", run.DEFAULT_SEED, 0.5, False,
                                       reference=corrupted)
    if result["correct"] or result["failed"] == 0 or not all(
            m.startswith(f"{key}: ") for m in messages):
        errors.append(f"corrupted reference for {key} was not reported alone: {messages[:3]}")


def check_without_source(errors: list[str]) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns(run.OUT.name, "__pycache__"))
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = bench("--workload", "bstable", "--seconds", "1", "--trace", "0", cwd=bare)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        if done.returncode == 0 or last[0].startswith("{"):
            errors.append(f"without the package: exit code {done.returncode}, output {last}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    errors: list[str] = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            check_output(name, trace, errors)
            print(f"{name} --trace {trace}: done", flush=True)
    check_corrupted_reference(errors)
    check_without_source(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
