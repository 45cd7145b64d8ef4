"""Command line driver: reports, formats, exit codes, determinism."""

import argparse
import hashlib
import json

import numpy as np
import pytest

from avlprange import write_problem
from avlprange.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    report = json.loads(out) if code == 0 else None
    return code, report, err


def test_check_reports_dimensions(capsys, fixtures_dir):
    code, report, _ = run_json(capsys, "check", str(fixtures_dir / "example1.json"))
    assert code == 0
    assert report["command"] == "check"
    assert report["values"] == {"rows": 4, "columns": 2, "valid": True}


def test_range_report_envelope(capsys, fixtures_dir):
    path = fixtures_dir / "example1.json"
    code, report, _ = run_json(capsys, "range", str(path))
    assert code == 0
    assert report["values"]["best"] == pytest.approx(3.0, abs=1e-9)
    assert report["values"]["worst_lower"] == pytest.approx(1.5, abs=1e-9)
    assert report["values"]["worst_upper"] == pytest.approx(3.0, abs=1e-9)
    assert report["values"]["lower_tight"] is False
    assert report["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["tolerances"] == {"tol": 1e-9, "orthant_cap": 16, "max_iters": 50}
    assert isinstance(report["wall_time_ms"], float)
    assert len(report["logs"]["upper_iteration"]) == 2


def test_range_renders_infinities_as_strings(capsys, fixtures_dir):
    code, report, _ = run_json(capsys, "range", str(fixtures_dir / "example3.json"))
    assert code == 0
    assert report["values"]["worst_lower"] == "-inf"
    assert report["values"]["worst_upper"] == pytest.approx(-4.0, abs=1e-9)


def test_text_format_flattens_keys(capsys, fixtures_dir):
    code, out, _ = run(capsys, "range", str(fixtures_dir / "example1.json"))
    assert code == 0
    lines = out.splitlines()
    assert "command = range" in lines
    assert "values.best = 3.0" in lines
    assert any(line.startswith("input.sha256 = ") for line in lines)


def test_solve_midpoint_default(capsys, fixtures_dir):
    code, report, _ = run_json(capsys, "solve", str(fixtures_dir / "example4.json"))
    assert code == 0
    assert report["values"]["status"] == "optimal"
    assert report["values"]["value"] == pytest.approx(21.0, abs=1e-9)
    assert report["witnesses"]["optimizer"] == pytest.approx([3.0, 9.0], abs=1e-7)
    assert report["logs"]["realization_choice"] == "midpoint"


def test_solve_corner_auto_witness(capsys, fixtures_dir):
    code, report, _ = run_json(
        capsys, "solve", str(fixtures_dir / "example4.json"), "--corner", "worst"
    )
    assert code == 0
    assert report["values"]["value"] == pytest.approx(19.81264637002342, abs=1e-6)
    assert report["logs"]["realization_choice"] == "corner:worst:auto"


def test_solve_corner_with_signs(capsys, fixtures_dir):
    code, report, _ = run_json(
        capsys,
        "solve",
        str(fixtures_dir / "example4.json"),
        "--corner",
        "best",
        "--signs",
        "+,+",
    )
    assert code == 0
    assert report["values"]["value"] == pytest.approx(22.31935771632471, abs=1e-9)
    assert report["logs"]["realization_choice"] == "corner:best:+,+"


@pytest.fixture
def example4_midpoint_file(tmp_path, example4):
    """Zero-width problem file holding example 4's midpoint realization."""
    from avlprange import AvlpProblem, IntervalMatrix, IntervalVector

    point = AvlpProblem(
        A=IntervalMatrix.from_point(example4.A.mid),
        b=IntervalVector.from_point(example4.b.mid),
        c=IntervalVector.from_point(example4.c.mid),
        D=IntervalMatrix.from_point(example4.D.mid),
    )
    path = tmp_path / "realization.json"
    write_problem(point, path)
    return str(path)


def test_solve_explicit_realization(capsys, fixtures_dir, example4_midpoint_file):
    code, report, _ = run_json(
        capsys,
        "solve",
        str(fixtures_dir / "example4.json"),
        "--realization",
        example4_midpoint_file,
    )
    assert code == 0
    assert report["values"]["value"] == pytest.approx(21.0, abs=1e-9)


def test_signs_without_corner_rejected_beside_a_realization(
    capsys, fixtures_dir, example4_midpoint_file
):
    code, out, err = run(
        capsys,
        "solve",
        str(fixtures_dir / "example4.json"),
        "--realization",
        example4_midpoint_file,
        "--signs",
        "+,-",
    )
    assert code == 2
    assert "--signs needs --corner" in err
    assert out == ""


def test_best_and_worst_bstable(capsys, fixtures_dir):
    path = str(fixtures_dir / "example4.json")
    code, report, _ = run_json(capsys, "best", path, "--bstable", "--basis", "1,2")
    assert code == 0
    assert report["values"]["best"] == pytest.approx(22.31935771632471, abs=1e-6)
    assert report["certificates"]["stability"]["status"] == "verified_nondegenerate"

    code, report, _ = run_json(capsys, "worst", path, "--bstable", "--basis", "1,2")
    assert code == 0
    assert report["values"]["worst"] == pytest.approx(19.81264637002342, abs=1e-6)
    assert report["witnesses"]["optimizer"] == pytest.approx(
        [3.0444964871194378, 8.38407494145199], abs=1e-6
    )


def test_bstable_values_need_a_sufficient_certificate(capsys, fixtures_dir, tmp_path):
    # basis 1,3 of example 4 is not stable: a value would be wrong
    path = str(fixtures_dir / "example4.json")
    for command in ("best", "worst"):
        code, out, err = run(capsys, command, path, "--bstable", "--basis", "1,3")
        assert code == 3
        assert out == ""
        assert "certificate is unknown" in err
        assert "nonbasic row 2 not verifiably satisfied" in err

    # a multiplier of 1e-8 is verified nonnegative but not
    # nondegenerate: enough for the best case, not for the worst
    document = {
        "A": {"mid": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "rad": [[0.0, 0.0]] * 3},
        "b": {"mid": [1.0, 1.0, 3.0], "rad": [0.0, 0.0, 0.0]},
        "c": {"mid": [1.0, 1e-8], "rad": [0.0, 0.0]},
        "D": {"mid": [[0.0, 0.0]] * 3, "rad": [[0.0, 0.0]] * 3},
    }
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps(document), encoding="utf-8")
    code, report, _ = run_json(capsys, "best", str(degenerate), "--bstable", "--basis", "1,2")
    assert code == 0
    assert report["certificates"]["stability"]["status"] == "verified"
    assert report["values"]["best"] == pytest.approx(1.0 + 1e-8, abs=1e-12)
    code, out, err = run(capsys, "worst", str(degenerate), "--bstable", "--basis", "1,2")
    assert code == 3
    assert out == ""
    assert "certificate is verified;" in err and "needs verified_nondegenerate" in err


def test_stability_command(capsys, fixtures_dir):
    code, report, _ = run_json(
        capsys, "stability", str(fixtures_dir / "example4.json"), "--basis", "1,2"
    )
    assert code == 0
    assert report["values"]["status"] == "verified_nondegenerate"
    cert = report["certificates"]["stability"]
    assert cert["primal_margin"] == pytest.approx(0.4334, abs=1e-3)


def test_stability_with_singular_basic_rows_is_unknown(capsys, tmp_path):
    document = {
        "A": {"mid": [[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]], "rad": [[0.0, 0.0]] * 3},
        "b": {"mid": [1.0, 1.0, 1.0], "rad": [0.0, 0.0, 0.0]},
        "c": {"mid": [1.0, 1.0], "rad": [0.0, 0.0]},
        "D": {"mid": [[0.0, 0.0]] * 3, "rad": [[0.0, 0.0]] * 3},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, report, _ = run_json(capsys, "stability", str(path), "--basis", "1,2")
    assert code == 0
    assert report["values"]["status"] == "unknown"
    assert report["certificates"]["stability"]["reason"] == (
        "primal enclosure failed: unknown-regularity: midpoint is singular"
    )


@pytest.mark.parametrize("command, basis", [("best", "1,2"), ("worst", "9,9")])
def test_basis_without_bstable_exits_2(capsys, fixtures_dir, command, basis):
    # the range analysis ignores a basis, so accepting one would
    # silently drop it
    code, out, err = run(capsys, command, str(fixtures_dir / "example4.json"), "--basis", basis)
    assert code == 2
    assert "--basis needs --bstable" in err
    assert out == ""


@pytest.mark.parametrize("basis, typed", [("1,9", "row 9 "), ("1,1", "row 1 ")])
def test_basis_errors_name_the_row_as_typed(capsys, fixtures_dir, basis, typed):
    code, out, err = run(capsys, "stability", str(fixtures_dir / "example4.json"), "--basis", basis)
    assert code == 2
    assert typed in err
    assert out == ""


def test_sample_oracle_stays_inside_the_range(capsys, fixtures_dir):
    code, report, _ = run_json(
        capsys,
        "sample-oracle",
        str(fixtures_dir / "example2.json"),
        "--samples",
        "64",
        "--seed",
        "7",
    )
    assert code == 0
    values = report["values"]
    assert values["samples"] == 64
    assert values["certified"] is False
    assert -1.0 - 1e-9 <= values["min_observed"] <= -0.5 + 1e-9
    assert values["max_observed"] <= 1.0 + 1e-9
    assert sum(values["statuses"].values()) == 64


def test_usage_errors_exit_1(capsys, fixtures_dir):
    code, _, err = run(capsys, "frobnicate", str(fixtures_dir / "example1.json"))
    assert code == 1
    assert "usage error" in err

    code, _, err = run(capsys, "solve")
    assert code == 1

    code, _, err = run(
        capsys, "vertices", str(fixtures_dir / "example4.json"), "--basis", "1,2"
    )
    assert code == 1
    assert "usage error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "/does/not/exist.json")
    assert code == 2
    assert "input error" in err


def test_input_errors_exit_2(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "solve", str(fixtures_dir / "example1.json"), "--signs", "+,+"
    )
    assert code == 2
    assert "--corner" in err
    code, out, err = run(
        capsys, "sample-oracle", str(fixtures_dir / "example2.json"), "--seed", "-1"
    )
    assert code == 2
    assert "--seed must be a nonnegative integer" in err
    assert out == ""


def test_undecodable_realization_file_exits_2(capsys, fixtures_dir, tmp_path):
    path = tmp_path / "realization.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run(
        capsys, "solve", str(fixtures_dir / "example1.json"), "--realization", str(path)
    )
    assert code == 2
    assert "input error" in err


def test_out_of_range_tolerances_exit_2(capsys, fixtures_dir):
    path = str(fixtures_dir / "example1.json")
    for option in (["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol", "0.5"],
                   ["--max-iters", "0"], ["--orthant-cap", "0"], ["--orthant-cap", "-1"]):
        code, out, err = run(capsys, "range", path, *option)
        assert code == 2, option
        assert "input error" in err
        assert out == ""


@pytest.mark.parametrize("command", ["check", "range"])
def test_overflowing_data_exits_2(capsys, tmp_path, command):
    # finite endpoints whose midpoint overflows: the problem is refused
    # when it is built, before any analysis runs
    document = {
        "A": {"inf": [[1e308, 1e308]], "sup": [[1e308, 1e308]]},
        "b": {"inf": [1.0], "sup": [1.0]},
        "c": {"inf": [1.0, 1.0], "sup": [1.0, 1.0]},
        "D": {"inf": [[0.0, 0.0]], "sup": [[0.0, 0.0]]},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert "A.mid must contain only finite values" in err
    assert out == ""


def test_numerical_failures_exit_3(capsys, tmp_path):
    document = {
        "A": {"mid": [[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]], "rad": [[2.0, 2.0], [2.0, 2.0], [0.0, 0.0]]},
        "b": {"mid": [1.0, 1.0, 1.0], "rad": [0.0, 0.0, 0.0]},
        "c": {"mid": [1.0, 1.0], "rad": [0.0, 0.0]},
        "D": {"mid": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "rad": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "best", str(path), "--bstable", "--basis", "1,2")
    assert code == 3
    assert "numerical failure" in err
    assert out == ""


def test_size_cap_exits_4(capsys, tmp_path):
    n = 17
    document = {
        "A": {"mid": [[1.0] * n], "rad": [[0.0] * n]},
        "b": {"mid": [1.0], "rad": [0.0]},
        "c": {"mid": [1.0] * n, "rad": [0.0] * n},
        "D": {"mid": [[0.0] * n], "rad": [[0.0] * n]},
    }
    path = tmp_path / "wide_n.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    # the cap counts all n variables, so range and worst refuse as a
    # whole rather than report every value as an error
    for command in ("solve", "best", "range", "worst"):
        code, _, err = run(capsys, command, str(path))
        assert code == 4, command
        assert "size limit" in err


def test_reports_are_deterministic(capsys, fixtures_dir):
    path = str(fixtures_dir / "example4.json")
    _, first, _ = run_json(capsys, "range", path)
    _, second, _ = run_json(capsys, "range", path)
    first.pop("wall_time_ms")
    second.pop("wall_time_ms")
    assert first == second


def test_reports_validate_against_schema(capsys, fixtures_dir, docs_dir, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((docs_dir / "report_schema.json").read_text(encoding="utf-8"))
    # every row basic: no nonbasic row bounds the margin, which is "inf"
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "A": {"mid": [[2.0, 0.0], [0.0, 2.0]], "rad": [[0.1, 0.0], [0.0, 0.1]]},
        "b": {"mid": [1.0, 1.0], "rad": [0.0, 0.0]},
        "c": {"mid": [1.0, 1.0], "rad": [0.0, 0.0]},
        "D": {"mid": [[0.0, 0.0]] * 2, "rad": [[0.0, 0.0]] * 2},
    }), encoding="utf-8")
    for argv in (
        ("range", str(fixtures_dir / "example1.json")),
        ("range", str(fixtures_dir / "example3.json")),
        ("stability", str(fixtures_dir / "example4.json"), "--basis", "1,2"),
        ("stability", str(fixtures_dir / "example4.json"), "--basis", "1,3"),
        ("stability", str(square), "--basis", "1,2"),
        ("worst", str(fixtures_dir / "example4.json"), "--bstable", "--basis", "1,2"),
        ("sample-oracle", str(fixtures_dir / "example2.json"), "--samples", "8"),
    ):
        code, report, _ = run_json(capsys, *argv)
        assert code == 0
        jsonschema.validate(report, schema)


def _block_reports(fixtures_dir):
    """One command line for each shape of witnesses and logs block."""
    ex1, ex2, ex4 = (str(fixtures_dir / f"example{i}.json") for i in (1, 2, 4))
    return (
        ("range", ex1),
        ("worst", ex1),
        ("worst", ex4, "--bstable", "--basis", "1,2"),
        ("best", ex1),
        ("best", ex4, "--bstable", "--basis", "1,2"),
        ("solve", ex1),
        ("sample-oracle", ex2, "--samples", "2"),
    )


def test_schema_rejects_an_extra_or_a_missing_key(capsys, fixtures_dir, docs_dir):
    # every key each command writes under witnesses and logs is
    # required, and no other key is allowed, down to the realization
    # and iteration-step objects inside them
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((docs_dir / "report_schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    mutated = set()
    for argv in _block_reports(fixtures_dir):
        code, report, _ = run_json(capsys, *argv)
        assert code == 0
        assert validator.is_valid(report), argv
        # (path to an object, the keys to drop from it)
        blocks = [((block,), list(report[block])) for block in ("witnesses", "logs")
                  if block in report]
        witnesses = report.get("witnesses", {})
        for key in ("best", "worst_upper", "realization"):
            if witnesses.get(key) is not None:
                blocks.append((("witnesses", key), ["A", "b", "c", "D"]))
        if report.get("logs", {}).get("upper_iteration"):
            blocks.append((("logs", "upper_iteration", 0), ["index", "status", "value", "bound", "sign"]))
        for path, keys in blocks:
            def copy_at():
                doc = json.loads(json.dumps(report))
                target = doc
                for step in path:
                    target = target[step]
                return doc, target

            doc, target = copy_at()
            target["unexpected"] = None
            assert not validator.is_valid(doc), (argv, path, "extra key")
            for key in keys:
                doc, target = copy_at()
                del target[key]
                assert not validator.is_valid(doc), (argv, path, key)
                mutated.add((path[0], key) if len(path) == 1 else key)
    assert mutated >= {
        ("witnesses", "best"), ("witnesses", "worst_upper"), ("witnesses", "optimizer"),
        ("witnesses", "sign"), ("witnesses", "realization"), ("logs", "upper_iteration"),
        ("logs", "realization_choice"), ("logs", "note"), "A", "D", "sign", "bound",
    }


def test_range_report_with_a_failed_component_validates(capsys, fixtures_dir, docs_dir,
                                                         monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    from avlprange import NumericalError, ranges

    def failing(*args, **kwargs):
        raise NumericalError("best-case sweep failed")

    monkeypatch.setattr(ranges, "best_case", failing)
    code, report, _ = run_json(capsys, "range", str(fixtures_dir / "example1.json"))
    assert code == 0
    assert report["errors"] == {"best": "best-case sweep failed"}
    assert report["witnesses"]["best"] is None
    schema = json.loads((docs_dir / "report_schema.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, schema)


def test_schema_names_every_command(docs_dir):
    schema = json.loads((docs_dir / "report_schema.json").read_text(encoding="utf-8"))
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(schema["properties"]["command"]["enum"]) == set(subparsers.choices)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
def test_worst_skips_the_best_case(capsys, fixtures_dir, monkeypatch, name):
    from avlprange import ranges

    calls = []
    best_case = ranges.best_case

    def counting_best_case(*args, **kwargs):
        calls.append(args)
        return best_case(*args, **kwargs)

    monkeypatch.setattr(ranges, "best_case", counting_best_case)
    path = str(fixtures_dir / f"{name}.json")
    code, worst, _ = run_json(capsys, "worst", path)
    assert code == 0
    assert calls == []
    code, full, _ = run_json(capsys, "range", path)
    assert code == 0
    assert len(calls) == 1
    del full["values"]["best"], full["witnesses"]["best"]
    for report in (worst, full):
        del report["command"], report["wall_time_ms"]
    assert worst == full
