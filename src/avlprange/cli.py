"""Command line front end.

Every command reads one problem file, runs one analysis, and prints a
report to stdout, as flat ``key = value`` text by default or as a JSON
document with ``--format json``.  Infinite values are serialized as
the strings "inf" and "-inf" so the JSON stays portable.  Exit codes:
0 success, 1 usage, 2 bad input, 3 numerical failure, 4 size cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .avlp import DEFAULT_ORTHANT_CAP
from .errors import (
    InputError,
    NumericalError,
    SingularMatrixError,
    SizeCapError,
)
from .intervals import DEFAULT_TOL, IntervalVector, SignVector, _check_tolerances
from .problem_io import _decode_document, parse_problem, problem_from_dict
from .ranges import (
    AvlpProblem,
    Realization,
    best_case,
    full_range,
    sample_realization,
    worst_range,
    worst_upper_bound,
)
from .simplex import Status
from .stability import (
    Basis,
    CertificateStatus,
    StabilityCertificate,
    _BEST_ACCEPTS,
    _WORST_ACCEPTS,
    best_case_bstable,
    verify_b_stability,
    worst_case_bstable,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="numerical tolerance, a finite number in (0, 1e-3] "
                             "(default 1e-9)")
    common.add_argument("--orthant-cap", type=int, default=DEFAULT_ORTHANT_CAP,
                        help="refuse programs with more variables than this, at "
                             f"least 1 (default {DEFAULT_ORTHANT_CAP}); only variables with a "
                             "nonconvex |x| term are split into sign orthants, "
                             "but all count")
    common.add_argument("--max-iters", type=int, default=50,
                        help="iteration limit of the worst-case upper bound, "
                             "at least 1 (default 50)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")

    parser = _Parser(
        prog="avlprange",
        description="Range of optimal values of interval absolute value "
        "linear programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("path", help="problem file (JSON)")
        return p

    command("check", "parse and validate a problem file")

    solve = command("solve", "solve one realization of the problem")
    solve.add_argument("--corner", choices=("best", "worst"),
                       help="use the structured corner realization for --signs")
    solve.add_argument("--signs",
                       help="comma-separated signs, e.g. '+,-' (with --corner)")
    solve.add_argument("--realization", metavar="FILE",
                       help="zero-width problem file naming the exact realization")

    best = command("best", "best case optimal value")
    best.add_argument("--bstable", action="store_true",
                      help="use the single-LP method for a stable basis")
    best.add_argument("--basis", help="1-based basic rows, e.g. '1,2'")

    worst = command("worst", "worst case optimal value bounds")
    worst.add_argument("--bstable", action="store_true",
                       help="use the exact square-system method for a stable basis")
    worst.add_argument("--basis", help="1-based basic rows, e.g. '1,2'")

    command("range", "best case plus worst case bracket in one report")

    stability = command("stability", "verify basis stability")
    stability.add_argument("--basis", required=True,
                           help="1-based basic rows, e.g. '1,2'")

    oracle = command("sample-oracle", "solve uniformly sampled realizations")
    oracle.add_argument("--samples", type=int, default=200)
    oracle.add_argument("--seed", type=int, default=0)

    return parser


def _ext(value):
    if value is None:
        return None
    v = float(value)
    if np.isposinf(v):
        return "inf"
    if np.isneginf(v):
        return "-inf"
    return v


def _vec(x):
    return None if x is None else [float(v) for v in np.asarray(x)]


def _signs_list(s: SignVector | None):
    return None if s is None else list(s.entries)


def _realization_doc(r: Realization | None):
    if r is None:
        return None
    return {
        "A": r.A.tolist(),
        "b": r.b.tolist(),
        "c": r.c.tolist(),
        "D": r.D.tolist(),
    }


def _interval_vector_doc(iv: IntervalVector | None):
    if iv is None:
        return None
    return {"inf": iv.inf.tolist(), "sup": iv.sup.tolist()}


def _certificate_doc(cert: StabilityCertificate):
    return {
        "status": cert.status.value,
        "primal_margin": _ext(cert.primal_margin),
        "dual_margin": _ext(cert.dual_margin),
        "primal_enclosure": _interval_vector_doc(cert.primal_enclosure),
        "dual_enclosure": _interval_vector_doc(cert.dual_enclosure),
        "reason": cert.reason,
    }


def _iteration_doc(log):
    return [
        {
            "index": step.index,
            "status": step.status.value,
            "value": _ext(step.value),
            "bound": _ext(step.bound),
            "sign": _signs_list(step.sign),
        }
        for step in log
    ]


def _parse_sign_tokens(text: str, n: int) -> SignVector:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if len(tokens) != n:
        raise InputError(f"expected {n} comma-separated signs, got {len(tokens)}")
    entries = []
    for token in tokens:
        if token in {"+", "+1", "1"}:
            entries.append(1)
        elif token in {"-", "-1"}:
            entries.append(-1)
        else:
            raise InputError(f"cannot read sign {token!r}; use one of + - +1 -1")
    return SignVector(tuple(entries))


def _parse_basis(text: str) -> Basis:
    try:
        labels = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise InputError(f"cannot read basis {text!r}: {exc}") from exc
    if any(label < 1 for label in labels):
        raise InputError("basis rows are numbered from 1 on the command line")
    return Basis.from_one_based(labels)


def _require_basis(args) -> Basis:
    if not args.basis:
        raise InputError("this mode needs --basis with 1-based row numbers")
    return _parse_basis(args.basis)


def _verified_certificate(
    problem: AvlpProblem, args, accepted: tuple[CertificateStatus, ...], what: str
) -> tuple[Basis, StabilityCertificate]:
    """Basis and certificate for a ``--bstable`` value; a certificate
    outside ``accepted`` is a numerical failure, because the value would
    be meaningless."""
    basis = _require_basis(args)
    cert = verify_b_stability(problem, basis, tol=args.tol)
    if cert.status not in accepted:
        needed = " or ".join(status.value for status in accepted)
        raise NumericalError(
            f"stability certificate is {cert.status.value}"
            + (f" ({cert.reason})" if cert.reason else "")
            + f"; the basis-stable {what} needs {needed}"
        )
    return basis, cert


def _pick_realization(problem: AvlpProblem, args) -> tuple[Realization, str]:
    if args.realization and args.corner:
        raise InputError("--realization and --corner are mutually exclusive")
    if args.signs and not args.corner:
        raise InputError("--signs needs --corner best|worst")
    if args.realization:
        other = parse_problem(args.realization)
        if (other.m, other.n) != (problem.m, problem.n):
            raise InputError(
                f"realization file is {other.m}x{other.n}, problem is "
                f"{problem.m}x{problem.n}"
            )
        if any(np.any(getattr(other, k).width > 0) for k in ("A", "b", "c", "D")):
            raise InputError(
                "realization file must have zero-width intervals"
            )
        chosen = Realization(A=other.A.mid, b=other.b.mid, c=other.c.mid, D=other.D.mid)
        if not problem.A.contains(chosen.A) or not problem.b.contains(chosen.b) \
                or not problem.c.contains(chosen.c) or not problem.D.contains(chosen.D):
            raise InputError("realization lies outside the problem's intervals")
        return chosen, f"explicit:{args.realization}"
    if args.corner:
        if not args.signs:
            # no sign vector supplied: reuse the witness the range
            # analysis itself would report for that endpoint
            if args.corner == "best":
                _, witness = best_case(
                    problem, tol=args.tol, orthant_cap=args.orthant_cap
                )
            else:
                _, witness, _ = worst_upper_bound(
                    problem,
                    tol=args.tol,
                    orthant_cap=args.orthant_cap,
                    max_iters=args.max_iters,
                )
            if witness is None:
                raise InputError(
                    f"--corner {args.corner}: no witness realization exists "
                    "for this problem; supply --signs explicitly"
                )
            return witness, f"corner:{args.corner}:auto"
        s = _parse_sign_tokens(args.signs, problem.n)
        corner = problem.best_corner if args.corner == "best" else problem.worst_corner
        return corner(s), f"corner:{args.corner}:{args.signs}"
    chosen = Realization(
        A=problem.A.mid, b=problem.b.mid, c=problem.c.mid, D=problem.D.mid
    )
    return chosen, "midpoint"


def _cmd_check(problem: AvlpProblem, args) -> dict:
    return {"values": {"rows": problem.m, "columns": problem.n, "valid": True}}


def _cmd_solve(problem: AvlpProblem, args) -> dict:
    chosen, how = _pick_realization(problem, args)
    out = chosen.solve(tol=args.tol, orthant_cap=args.orthant_cap)
    payload = {
        "values": {"status": out.status.value, "value": _ext(out.value)},
        "witnesses": {
            "optimizer": _vec(out.optimizer),
            "sign": _signs_list(out.sign),
            "realization": _realization_doc(chosen),
        },
        "logs": {"realization_choice": how},
    }
    if out.status is Status.UNBOUNDED:
        payload["certificates"] = {"ray": _vec(out.ray)}
    return payload


def _cmd_best(problem: AvlpProblem, args) -> dict:
    if args.basis and not args.bstable:
        raise InputError("--basis needs --bstable")
    if args.bstable:
        basis, cert = _verified_certificate(problem, args, _BEST_ACCEPTS, "best case")
        value = best_case_bstable(problem, basis, tol=args.tol, certificate=cert)
        return {
            "values": {"best": _ext(value)},
            "certificates": {"stability": _certificate_doc(cert)},
        }
    value, witness = best_case(problem, tol=args.tol, orthant_cap=args.orthant_cap)
    return {
        "values": {"best": _ext(value)},
        "witnesses": {"best": _realization_doc(witness)},
    }


def _cmd_worst(problem: AvlpProblem, args) -> dict:
    if args.basis and not args.bstable:
        raise InputError("--basis needs --bstable")
    if args.bstable:
        basis, cert = _verified_certificate(problem, args, _WORST_ACCEPTS, "worst case")
        value, x_star, witness = worst_case_bstable(
            problem, basis, cap=args.orthant_cap, certificate=cert
        )
        return {
            "values": {"worst": _ext(value)},
            "witnesses": {
                "optimizer": _vec(x_star),
                "realization": _realization_doc(witness),
            },
            "certificates": {"stability": _certificate_doc(cert)},
        }
    payload = _cmd_range(problem, args, analysis=worst_range)
    del payload["values"]["best"], payload["witnesses"]["best"]
    return payload


def _cmd_range(problem: AvlpProblem, args, analysis=full_range) -> dict:
    report = analysis(
        problem, tol=args.tol, max_iters=args.max_iters, orthant_cap=args.orthant_cap
    )
    payload = {
        "values": {
            "best": _ext(report.best),
            "worst_lower": _ext(report.worst_lower),
            "worst_upper": _ext(report.worst_upper),
            "lower_tight": report.lower_tight,
        },
        "witnesses": {
            "best": _realization_doc(report.best_witness),
            "worst_upper": _realization_doc(report.upper_witness),
        },
        "logs": {"upper_iteration": _iteration_doc(report.upper_log)},
    }
    if report.errors:
        payload["errors"] = dict(report.errors)
    return payload


def _cmd_stability(problem: AvlpProblem, args) -> dict:
    basis = _require_basis(args)
    cert = verify_b_stability(problem, basis, tol=args.tol)
    return {
        "values": {"status": cert.status.value},
        "certificates": {"stability": _certificate_doc(cert)},
    }


def _cmd_sample_oracle(problem: AvlpProblem, args) -> dict:
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be a nonnegative integer")
    rng = np.random.default_rng(args.seed)
    statuses: Counter = Counter()
    low = np.inf
    high = -np.inf
    for _ in range(args.samples):
        drawn = sample_realization(problem, rng)
        out = drawn.solve(tol=args.tol, orthant_cap=args.orthant_cap)
        statuses[out.status.value] += 1
        low = min(low, out.value)
        high = max(high, out.value)
    return {
        "values": {
            "samples": args.samples,
            "seed": args.seed,
            "min_observed": _ext(low),
            "max_observed": _ext(high),
            "statuses": dict(sorted(statuses.items())),
            "certified": False,
        },
        "logs": {
            "note": "sampled values are observations only; they certify no bound"
        },
    }


_HANDLERS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "best": _cmd_best,
    "worst": _cmd_worst,
    "range": _cmd_range,
    "stability": _cmd_stability,
    "sample-oracle": _cmd_sample_oracle,
}


def run_command(args) -> dict:
    """Execute one parsed command and assemble its report."""
    _check_tolerances(args.tol, args.max_iters)
    if args.orthant_cap < 1:
        raise InputError(f"--orthant-cap must be at least 1, got {args.orthant_cap}")
    path = Path(args.path)
    raw = path.read_bytes()
    problem = problem_from_dict(_decode_document(raw, path))
    payload = _HANDLERS[args.command](problem, args)
    report = {
        "command": args.command,
        "input": {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()},
        "tolerances": {
            "tol": args.tol,
            "orthant_cap": args.orthant_cap,
            "max_iters": args.max_iters,
        },
    }
    report.update(payload)
    return report


def _flatten(value, prefix: str, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
        return
    if isinstance(value, (list, tuple)):
        rendered = json.dumps(value)
    elif isinstance(value, bool):
        rendered = "true" if value else "false"
    elif value is None:
        rendered = "null"
    else:
        rendered = str(value)
    out.append((prefix, rendered))


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    lines: list[tuple[str, str]] = []
    _flatten(report, "", lines)
    for key, rendered in lines:
        print(f"{key} = {rendered}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        report = run_command(args)
    except SizeCapError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    report["wall_time_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _print_report(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
