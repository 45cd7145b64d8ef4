"""Seeded instance generators for the benchmark.

Each generator returns plain endpoint arrays, ``{"A": (inf, sup), "b":
..., "c": ..., "D": ...}``, so the same instance can be handed to the
library as an ``AvlpProblem`` or written as a problem file for the
command line.  Nothing here imports the package under test.

``box_bounded`` generalises the n <= 3 generator in the test oracles to
any n and to a chosen set of uncertain columns; ``stable_basis``
generalises the stable-basis generator in the same way.
"""

from __future__ import annotations

import numpy as np


def box_bounded(rng: np.random.Generator, n: int, uncertain) -> dict:
    """Problem that is feasible and bounded for every realization.

    ``m = 3n`` rows: ``2n`` perturbed ``+-e_j`` box rows keep every
    realization bounded, and ``n`` random rows cut the box.  All rows
    hold strictly at one interior point ``x0`` for every realization,
    and ``x0`` sits in a random orthant, so the cutting rows can make
    whole orthants infeasible without ever emptying the program.

    Radii of ``A`` and ``c`` and the relief ``D`` are nonzero only in
    the columns listed in ``uncertain``; the other columns carry point
    data.  Per-row relief stays below 0.5, which is what keeps even the
    most relaxed realization bounded.
    """
    cols = np.zeros(n, dtype=bool)
    cols[list(uncertain)] = True
    k = max(int(cols.sum()), 1)
    m = 3 * n

    x0 = rng.choice((-1.0, 1.0), n) * rng.uniform(0.2, 0.8, n)
    box = np.zeros((2 * n, n))
    box[2 * np.arange(n), np.arange(n)] = 1.0
    box[2 * np.arange(n) + 1, np.arange(n)] = -1.0
    box += rng.uniform(-0.1 / n, 0.1 / n, box.shape)
    cut = rng.uniform(-1.0, 1.0, (n, n))
    a_mid = np.vstack([box, cut])

    a_rad = np.where(cols, rng.uniform(0.0, 0.1 / k, (m, n)), 0.0)
    d_sup = np.where(cols, rng.uniform(0.0, 0.3 / k, (m, n)), 0.0)
    b_rad = rng.uniform(0.0, 0.1, m)
    # the largest row value any realization reaches at x0, plus a margin
    reach = a_mid @ x0 + a_rad @ np.abs(x0)
    b_low = np.concatenate(
        [np.maximum(reach[: 2 * n], 0.0) + rng.uniform(1.0, 2.0, 2 * n),
         reach[2 * n:] + rng.uniform(0.2, 1.0, n)]
    )
    b_mid = b_low + b_rad

    c_mid = rng.uniform(-2.0, 2.0, n)
    c_rad = np.where(cols, rng.uniform(0.0, 0.5, n), 0.0)
    return {
        "A": (a_mid - a_rad, a_mid + a_rad),
        "b": (b_mid - b_rad, b_mid + b_rad),
        "c": (c_mid - c_rad, c_mid + c_rad),
        "D": (np.zeros((m, n)), d_sup),
    }


def stable_basis(rng: np.random.Generator, n: int, wide: bool) -> tuple[dict, tuple[int, ...]]:
    """Problem whose first ``n`` rows form an optimal basis, and that basis.

    ``m = 3n``.  The basic block is strictly diagonally dominant, the
    cost is a positive combination of the basic rows (so the basis is
    dual nondegenerate), and every nonbasic row holds with slack at the
    basic vertex, whose signs are random.  With radii of 1e-3 the
    stability certificate verifies.  With ``wide`` the matrix radii are
    larger than the diagonal, no sufficient regularity test can pass,
    and the certificate comes back ``unknown``.
    """
    m = 3 * n
    block = rng.uniform(-1.0, 1.0, (n, n)) / n
    block[np.arange(n), np.arange(n)] = rng.uniform(2.0, 4.0, n)
    x_star = rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 2.0, n)
    y_star = rng.uniform(0.5, 2.0, n)
    others = rng.uniform(-1.0, 1.0, (m - n, n))
    a_mid = np.vstack([block, others])
    b_mid = np.concatenate([block @ x_star, others @ x_star + rng.uniform(0.5, 1.5, m - n)])
    c_mid = block.T @ y_star

    scale = 1e-3
    if wide:
        a_rad = rng.uniform(1.0, 2.0, (m, n))
    else:
        a_rad = scale * rng.uniform(0.0, 1.0, (m, n))
    b_rad = scale * rng.uniform(0.0, 1.0, m)
    c_rad = scale * rng.uniform(0.0, 1.0, n)
    d_sup = scale * rng.uniform(0.0, 1.0, (m, n))
    doc = {
        "A": (a_mid - a_rad, a_mid + a_rad),
        "b": (b_mid - b_rad, b_mid + b_rad),
        "c": (c_mid - c_rad, c_mid + c_rad),
        "D": (np.zeros((m, n)), d_sup),
    }
    return doc, tuple(range(n))


def to_json(doc: dict) -> dict:
    """Problem-file document (inf/sup form) for an instance."""
    return {key: {"inf": lo.tolist(), "sup": hi.tolist()} for key, (lo, hi) in doc.items()}
