"""Nelder-Mead simplex search with seeded multi-start.

The simplex update follows the classic fminsearch variant: reflection,
expansion, outside/inside contraction, and shrinkage, with greedy expansion
acceptance. Ties on equal objective values are broken by vertex order, and the
random restarts derive from a single master seed, so runs are reproducible
bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np


# fminsearch's coefficients (Lagarias et al. 1998, SIAM J. Optim. 9:112) and
# the relative spread of objective values that ends a search.
REFLECTION, EXPANSION, CONTRACTION, SHRINK = 1.0, 2.0, 0.5, 0.5
F_TOL = 1e-8
# Simplex-diameter tolerance and initial simplex step, as fractions of the
# coordinate scale (the bound half-width u_max when searching a box).
X_TOL = 1e-6
INITIAL_STEP = 0.05


@dataclass(frozen=True)
class OptimizerOptions:
    """Budget and restart settings for the simplex search.

    ``max_evals`` counts objective evaluations per start; ``None`` resolves
    to 200*n for n variables.
    """

    max_evals: int | None = None
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("at least one start is required")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError(f"max_evals must be at least 1, got {self.max_evals}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SearchResult:
    x: np.ndarray
    fun: float
    evals: int
    converged: bool


def _resolve(options: OptimizerOptions, n: int) -> OptimizerOptions:
    if options.max_evals is not None:
        return options
    return replace(options, max_evals=200 * n)


def nelder_mead(objective: Callable[[np.ndarray], float], x0: Sequence[float],
                options: OptimizerOptions = OptimizerOptions(),
                scale: float | None = None) -> SearchResult:
    """Minimize ``objective`` from ``x0``.

    ``scale`` sets the initial simplex step and the diameter tolerance
    (:data:`INITIAL_STEP` and :data:`X_TOL` times it); it defaults to
    max(1, max|x0|). Terminates when the simplex diameter and the relative
    objective spread are both below tolerance, or when the evaluation budget
    is exhausted (reported via ``converged=False``).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n < 1:
        raise ValueError("objective must have at least one variable")
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(x0), initial=0.0)))
    opt = _resolve(options, n)
    x_tol = X_TOL * scale
    step = INITIAL_STEP * scale

    verts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        verts[i + 1, i] += step
    fvals = np.empty(n + 1)
    evals = 0
    for i in range(n + 1):
        fvals[i] = objective(verts[i])
        evals += 1
    if not np.all(np.isfinite(fvals)):
        raise ValueError("objective is not finite on the initial simplex")

    alpha, chi, psi, sigma = REFLECTION, EXPANSION, CONTRACTION, SHRINK
    converged = False
    while True:
        order = np.argsort(fvals, kind="stable")
        verts = verts[order]
        fvals = fvals[order]

        diam = np.max(np.abs(verts[1:] - verts[0])) if n > 0 else 0.0
        spread = fvals[-1] - fvals[0]
        if diam <= x_tol and spread <= F_TOL * max(abs(fvals[0]), abs(fvals[-1]), 1e-300):
            converged = True
            break
        if evals >= opt.max_evals:
            break

        centroid = verts[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - verts[-1])
        fr = objective(xr)
        evals += 1
        if fr < fvals[0]:
            xe = centroid + alpha * chi * (centroid - verts[-1])
            fe = objective(xe)
            evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + psi * alpha * (centroid - verts[-1])
                fc = objective(xc)
                accept = fc <= fr
            else:
                xc = centroid - psi * (centroid - verts[-1])
                fc = objective(xc)
                accept = fc < fvals[-1]
            evals += 1
            if accept:
                verts[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    verts[i] = verts[0] + sigma * (verts[i] - verts[0])
                    fvals[i] = objective(verts[i])
                    evals += 1

    best = int(np.argmin(fvals))  # argmin returns the lowest index on ties
    return SearchResult(verts[best].copy(), float(fvals[best]), evals, converged)


def multi_start(objective: Callable[[np.ndarray], float],
                lower: Sequence[float], upper: Sequence[float],
                options: OptimizerOptions = OptimizerOptions(),
                extra_starts: Sequence = ()) -> SearchResult:
    """Best of ``options.restarts`` seeded simplex runs inside a box.

    The first start is the zero vector when it lies inside the box; the rest
    are drawn uniformly. ``extra_starts`` run in addition to (and before) the
    standard set, e.g. to warm-start from a neighbouring solution. Candidate
    points are clamped to the box before evaluation, which keeps every
    reported point feasible.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower >= upper):
        raise ValueError("box bounds must satisfy lower < upper elementwise")
    n = lower.size
    scale = float(np.max((upper - lower) / 2.0))
    opt = _resolve(options, n)

    def clamped(x):
        return objective(np.clip(x, lower, upper))

    rng = np.random.default_rng(opt.seed)
    starts = [np.clip(np.asarray(x, dtype=float), lower, upper)
              for x in extra_starts]
    zero = np.zeros(n)
    if np.all(zero >= lower) and np.all(zero <= upper):
        starts.append(zero)
    while len(starts) < opt.restarts + len(extra_starts):
        starts.append(rng.uniform(lower, upper))

    best: SearchResult | None = None
    total_evals = 0
    for x0 in starts:
        res = nelder_mead(clamped, x0, opt, scale=scale)
        total_evals += res.evals
        if best is None or res.fun < best.fun:
            best = SearchResult(np.clip(res.x, lower, upper), res.fun,
                                res.evals, res.converged)
    return SearchResult(best.x, best.fun, total_evals, best.converged)
