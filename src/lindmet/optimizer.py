"""Nelder-Mead simplex search with seeded multi-start.

The simplex update follows the classic fminsearch variant: reflection,
expansion, outside/inside contraction, and shrinkage, with greedy expansion
acceptance. Ties on equal objective values are broken by vertex order, and the
random restarts derive from a single master seed, so runs are reproducible
bit-for-bit. The vertices stay in the order a stable sort of their values
gives: an iteration that replaces the worst vertex inserts the new one
where that sort would put it, and only a shrink, or a NaN value, sorts
them all again; the simplex diameter is computed only once the values'
spread has met its tolerance.

An objective maps an (N, n) stack of points to their N values. The points
of a batch do not depend on each other's values, so the search hands each
batch over in one call: the initial simplex's n+1 vertices, and a shrink's n
new ones; a reflection, expansion or contraction is a stack of one point.

A search is a coroutine that yields its batches and is sent their values,
and :func:`lockstep` advances any number of them together: each round
stacks the pending batch of every search into one objective call. Neither
search sees the other's values, so each takes the steps it takes alone,
bit for bit. :func:`multi_start` runs all its starts this way, over one
problem or several, such as a control search's encoding times, and clamps
each round's freshly stacked points to its box in place.
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

    ``max_evals`` counts evaluated points per start; ``None`` resolves
    to 200*n for n variables. It is checked once per simplex iteration, and
    nothing is cut short: the n+1 vertices of the initial simplex are always
    evaluated, and so are an iteration's reflection, expansion or contraction
    and a shrink's n re-evaluations. A start can therefore end up to n+1
    evaluations past the budget (with n = 10 and ``max_evals=3`` it makes 11).
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


def _simplex(x0: np.ndarray, opt: OptimizerOptions, scale: float):
    """Nelder-Mead from ``x0`` as a coroutine: it yields each batch of points
    as an (N, n) stack, is sent their N values, and returns its
    :class:`SearchResult` (see :func:`nelder_mead`)."""
    n = x0.size
    x_tol = X_TOL * scale
    step = INITIAL_STEP * scale

    verts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        verts[i + 1, i] += step
    fvals = yield verts
    evals = n + 1
    if not np.all(np.isfinite(fvals)):
        raise ValueError("objective is not finite on the initial simplex")

    alpha, chi, psi, sigma = REFLECTION, EXPANSION, CONTRACTION, SHRINK
    converged = False
    sort = True
    while True:
        # the vertices in the order of a stable argsort of their values:
        # after a shrink, or when the new value is NaN, by that sort; else
        # only the last vertex is new, and it goes where the sort puts it,
        # after the values it does not undercut
        if sort or fvals[-1] != fvals[-1]:
            order = np.argsort(fvals, kind="stable")
            verts, fvals = verts[order], fvals[order]
        else:
            k = int(np.searchsorted(fvals[:-1], fvals[-1], side="right"))
            if k < n:
                x, f = verts[-1].copy(), fvals[-1]
                verts[k + 1:], fvals[k + 1:] = verts[k:-1], fvals[k:-1]
                verts[k], fvals[k] = x, f

        # the spread first: the diameter is needed only when it is small
        spread = fvals[-1] - fvals[0]
        if spread <= F_TOL * max(abs(fvals[0]), abs(fvals[-1]), 1e-300) and (
                np.max(np.abs(verts[1:] - verts[0])) <= x_tol):
            converged = True
            break
        if evals >= opt.max_evals:
            break

        centroid = np.add.reduce(verts[:-1], axis=0) / n
        direction = centroid - verts[-1]
        xr = centroid + alpha * direction
        fr = (yield xr[None])[0]
        evals += 1
        sort = False
        if fr < fvals[0]:
            xe = centroid + alpha * chi * direction
            fe = (yield xe[None])[0]
            evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + psi * alpha * direction
                fc = (yield xc[None])[0]
                accept = fc <= fr
            else:
                xc = centroid - psi * direction
                fc = (yield xc[None])[0]
                accept = fc < fvals[-1]
            evals += 1
            if accept:
                verts[-1], fvals[-1] = xc, fc
            else:
                verts[1:] = verts[0] + sigma * (verts[1:] - verts[0])
                fvals[1:] = yield verts[1:]
                evals += n
                sort = True

    best = int(np.argmin(fvals))  # argmin returns the lowest index on ties
    return SearchResult(verts[best].copy(), float(fvals[best]), evals, converged)


def lockstep(searches: Sequence, evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
             ) -> list:
    """Advance ``searches``, coroutines that each yield (N, n) stacks of
    points and are sent their values, together, and return their results.

    Each round stacks the pending points of every unfinished search, in
    search order, and scores them in one call, ``evaluate(points, owner)``,
    where ``owner[j]`` is the index of the search that row j belongs to. A
    search's points do not depend on the other searches' values, so every
    search takes the steps it takes alone.
    """
    results = [None] * len(searches)
    pending = [(i, next(s)) for i, s in enumerate(searches)]
    while pending:
        ids = [i for i, _ in pending]
        sizes = [len(points) for _, points in pending]
        points = np.concatenate([points for _, points in pending])
        owner = np.array(ids) if len(points) == len(ids) else np.repeat(ids, sizes)
        values = np.asarray(evaluate(points, owner), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(f"the objective must map {len(points)} points to as many values, "
                             f"got shape {values.shape}")
        advanced, end = [], 0
        for (i, _), size in zip(pending, sizes):
            try:
                advanced.append((i, searches[i].send(values[end:end + size])))
            except StopIteration as done:
                results[i] = done.value
            end += size
        pending = advanced
    return results


def nelder_mead(objective: Callable[[np.ndarray], np.ndarray], x0: Sequence[float],
                options: OptimizerOptions = OptimizerOptions(),
                scale: float | None = None) -> SearchResult:
    """Minimize ``objective`` from ``x0``.

    ``objective`` maps an (N, n) stack of points to their N values. It gets
    the initial simplex, n+1 points, in one call, each shrink's n new points
    in one call, and each reflection, expansion or contraction as a stack of
    one. ``evals`` counts the points evaluated, not the calls. The search is
    one coroutine, which :func:`lockstep` drives; :func:`multi_start` drives
    many of them at once.

    ``scale`` sets the initial simplex step and the diameter tolerance
    (:data:`INITIAL_STEP` and :data:`X_TOL` times it); it defaults to
    max(1, max|x0|). Terminates when the simplex diameter and the relative
    objective spread are both below tolerance, or when the evaluation budget
    is exhausted (reported via ``converged=False``).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.size < 1:
        raise ValueError("objective must have at least one variable")
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(x0), initial=0.0)))
    search = _simplex(x0, _resolve(options, x0.size), scale)
    return lockstep([search], lambda points, owner: objective(points))[0]


def multi_start(objective: Callable[..., np.ndarray],
                lower: Sequence[float], upper: Sequence[float],
                options: OptimizerOptions | Sequence[OptimizerOptions] = OptimizerOptions(),
                extra_starts: Sequence = ()) -> SearchResult | list[SearchResult]:
    """Best of ``options.restarts`` seeded simplex runs inside a box.

    ``objective`` maps an (N, n) stack of points to their N values, as in
    :func:`nelder_mead`. The first start is the zero vector when it lies
    inside the box; the rest are drawn uniformly. ``extra_starts`` run in
    addition to (and before) the standard set, e.g. to warm-start from a
    neighbouring solution. Each stack of candidate points is clamped to the
    box before evaluation, which keeps every reported point feasible. The
    result's ``evals`` is the points evaluated over all starts.

    ``options`` may also be a sequence of P options, one per problem: P
    searches in one box, such as one per encoding time, each with its own
    budget, seed and restarts, and with ``extra_starts`` then P sequences of
    extra starts (or none). The result is a list of P results, each as one
    call on its problem would give it, and the objective is called as
    ``objective(points, problem)``, ``problem`` the (N,) problem index of each
    row. Either way every start of every problem advances in lockstep
    (:func:`lockstep`): each round's points, at most one batch per start, are
    one objective call.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower >= upper):
        raise ValueError("box bounds must satisfy lower < upper elementwise")
    n = lower.size
    if n < 1:
        raise ValueError("objective must have at least one variable")
    scale = float(np.max((upper - lower) / 2.0))
    single = isinstance(options, OptimizerOptions)
    problems = [options] if single else list(options)
    extras = [extra_starts] if single else list(extra_starts) or [()] * len(problems)
    if len(extras) != len(problems):
        raise ValueError("extra_starts must hold one sequence of starts per problem")

    searches, problem = [], []
    for p, (opt, extra) in enumerate(zip(problems, extras)):
        opt = _resolve(opt, n)
        rng = np.random.default_rng(opt.seed)
        starts = [np.clip(np.asarray(x, dtype=float), lower, upper) for x in extra]
        zero = np.zeros(n)
        if np.all(zero >= lower) and np.all(zero <= upper):
            starts.append(zero)
        while len(starts) < opt.restarts + len(extra):
            starts.append(rng.uniform(lower, upper))
        searches += [_simplex(x0, opt, scale) for x0 in starts]
        problem += [p] * len(starts)
    problem = np.array(problem)

    def evaluate(points, owner):
        # lockstep stacks every round's points afresh, so they clip in place
        points.clip(lower, upper, out=points)
        return objective(points) if single else objective(points, problem[owner])

    found = lockstep(searches, evaluate)
    out = []
    for p in range(len(problems)):
        runs = [res for res, q in zip(found, problem) if q == p]
        best = min(runs, key=lambda res: res.fun)  # the first of equal values
        out.append(SearchResult(np.clip(best.x, lower, upper), best.fun,
                                sum(res.evals for res in runs), best.converged))
    return out[0] if single else out
