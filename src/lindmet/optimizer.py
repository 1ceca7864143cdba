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


@dataclass(frozen=True)
class OptimizerOptions:
    """Termination, geometry and restart settings for the simplex search.

    ``None`` entries are resolved against the problem scale: max_evals to
    200*n, x_tol to 1e-6 and initial_step to 0.05 of the coordinate scale
    (the bound half-width u_max when searching a box).
    """

    max_evals: int | None = None
    x_tol: float | None = None
    f_tol: float = 1e-8
    restarts: int = 20
    seed: int = 0
    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    initial_step: float | None = None

    def __post_init__(self):
        if self.reflection <= 0:
            raise ValueError("reflection coefficient must be > 0")
        if self.expansion <= 1:
            raise ValueError("expansion coefficient must be > 1")
        if not 0 < self.contraction < 1:
            raise ValueError("contraction coefficient must be in (0, 1)")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink coefficient must be in (0, 1)")
        if self.restarts < 1:
            raise ValueError("at least one start is required")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError(f"max_evals must be at least 1, got {self.max_evals}")


@dataclass(frozen=True)
class SearchResult:
    x: np.ndarray
    fun: float
    evals: int
    converged: bool


def _resolve(options: OptimizerOptions, n: int, scale: float) -> OptimizerOptions:
    return replace(
        options,
        max_evals=options.max_evals if options.max_evals is not None else 200 * n,
        x_tol=options.x_tol if options.x_tol is not None else 1e-6 * scale,
        initial_step=options.initial_step if options.initial_step is not None
        else 0.05 * scale,
    )


def nelder_mead(objective: Callable[[np.ndarray], float], x0: Sequence[float],
                options: OptimizerOptions = OptimizerOptions(),
                trace: list | None = None) -> SearchResult:
    """Minimize ``objective`` from ``x0``.

    Terminates when the simplex diameter and the relative objective spread are
    both below tolerance, or when the evaluation budget is exhausted (reported
    via ``converged=False``). ``trace`` collects (operation, vertices, values)
    tuples per iteration when provided.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n < 1:
        raise ValueError("objective must have at least one variable")
    opt = _resolve(options, n, max(1.0, float(np.max(np.abs(x0), initial=0.0))))

    verts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        verts[i + 1, i] += opt.initial_step
    fvals = np.empty(n + 1)
    evals = 0
    for i in range(n + 1):
        fvals[i] = objective(verts[i])
        evals += 1
    if not np.all(np.isfinite(fvals)):
        raise ValueError("objective is not finite on the initial simplex")

    alpha, chi, psi, sigma = opt.reflection, opt.expansion, opt.contraction, opt.shrink
    converged = False
    while True:
        order = np.argsort(fvals, kind="stable")
        verts = verts[order]
        fvals = fvals[order]

        diam = np.max(np.abs(verts[1:] - verts[0])) if n > 0 else 0.0
        spread = fvals[-1] - fvals[0]
        if diam <= opt.x_tol and spread <= opt.f_tol * max(abs(fvals[0]), abs(fvals[-1]), 1e-300):
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
                verts[-1], fvals[-1], op = xe, fe, "expand"
            else:
                verts[-1], fvals[-1], op = xr, fr, "reflect"
        elif fr < fvals[-2]:
            verts[-1], fvals[-1], op = xr, fr, "reflect"
        else:
            if fr < fvals[-1]:
                xc = centroid + psi * alpha * (centroid - verts[-1])
                fc = objective(xc)
                evals += 1
                accept, xnew, fnew, op = fc <= fr, xc, fc, "contract-outside"
            else:
                xc = centroid - psi * (centroid - verts[-1])
                fc = objective(xc)
                evals += 1
                accept, xnew, fnew, op = fc < fvals[-1], xc, fc, "contract-inside"
            if accept:
                verts[-1], fvals[-1] = xnew, fnew
            else:
                op = "shrink"
                for i in range(1, n + 1):
                    verts[i] = verts[0] + sigma * (verts[i] - verts[0])
                    fvals[i] = objective(verts[i])
                    evals += 1
        if trace is not None:
            trace.append((op, verts.copy(), fvals.copy()))

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
    opt = _resolve(options, n, scale)

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
        res = nelder_mead(clamped, x0, opt)
        total_evals += res.evals
        if best is None or res.fun < best.fun:
            best = SearchResult(np.clip(res.x, lower, upper), res.fun,
                                res.evals, res.converged)
    return SearchResult(best.x, best.fun, total_evals, best.converged)
