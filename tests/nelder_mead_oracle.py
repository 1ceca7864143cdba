"""Reference Nelder-Mead: lindmet's simplex search in its plainest form.

The fminsearch variant (Lagarias et al. 1998, SIAM J. Optim. 9:112) with
coefficients 1, 2, 0.5 and 0.5 and greedy expansion, written as a loop over
one start at a time. Every iteration sorts the vertices by a stable argsort
of their values and gathers both arrays with it, always computes the
simplex diameter, and takes the centroid with ``np.mean``. The multi-start
draws its starts as lindmet does (extra starts, then the zero vector when it
lies in the box, then uniform draws from the seeded generator) and clamps
every batch to the box before evaluating it.

Written with numpy only, so it shares no code with lindmet; a search that
lindmet runs in lockstep must take these steps bit for bit.
"""
import numpy as np

REFLECTION, EXPANSION, CONTRACTION, SHRINK = 1.0, 2.0, 0.5, 0.5
F_TOL = 1e-8
X_TOL = 1e-6
INITIAL_STEP = 0.05


def nelder_mead(evaluate, x0, max_evals, scale):
    """Minimize from ``x0``; ``evaluate`` maps an (N, n) stack to N values.
    Returns (x, fun, evals, converged)."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    verts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        verts[i + 1, i] += INITIAL_STEP * scale
    fvals = np.asarray(evaluate(verts), dtype=float)
    evals = n + 1
    if not np.all(np.isfinite(fvals)):
        raise ValueError("objective is not finite on the initial simplex")
    converged = False
    while True:
        order = np.argsort(fvals, kind="stable")
        verts = verts[order]
        fvals = fvals[order]
        diam = np.max(np.abs(verts[1:] - verts[0]))
        spread = fvals[-1] - fvals[0]
        if diam <= X_TOL * scale and spread <= F_TOL * max(abs(fvals[0]), abs(fvals[-1]),
                                                           1e-300):
            converged = True
            break
        if evals >= max_evals:
            break
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + REFLECTION * (centroid - verts[-1])
        fr = evaluate(xr[None])[0]
        evals += 1
        if fr < fvals[0]:
            xe = centroid + REFLECTION * EXPANSION * (centroid - verts[-1])
            fe = evaluate(xe[None])[0]
            evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + CONTRACTION * REFLECTION * (centroid - verts[-1])
                fc = evaluate(xc[None])[0]
                accept = fc <= fr
            else:
                xc = centroid - CONTRACTION * (centroid - verts[-1])
                fc = evaluate(xc[None])[0]
                accept = fc < fvals[-1]
            evals += 1
            if accept:
                verts[-1], fvals[-1] = xc, fc
            else:
                verts[1:] = verts[0] + SHRINK * (verts[1:] - verts[0])
                fvals[1:] = evaluate(verts[1:])
                evals += n
    best = int(np.argmin(fvals))
    return verts[best].copy(), float(fvals[best]), evals, converged


def starts(lower, upper, restarts, seed, extra=()):
    """The starts of one problem's multi-start in the box [lower, upper]."""
    rng = np.random.default_rng(seed)
    out = [np.clip(np.asarray(x, dtype=float), lower, upper) for x in extra]
    zero = np.zeros(len(lower))
    if np.all(zero >= lower) and np.all(zero <= upper):
        out.append(zero)
    while len(out) < restarts + len(extra):
        out.append(rng.uniform(lower, upper))
    return out


def multi_start(objective, lower, upper, max_evals, restarts, seed, extra=()):
    """Best of the seeded starts, each run alone with its batches clamped to
    the box. Returns (x, fun, evals, converged) of the best start (the first
    of equal values) with the evaluations of all starts, and each start's
    list of the clamped batches it evaluated."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    scale = float(np.max((upper - lower) / 2.0))
    results, batches = [], []
    for x0 in starts(lower, upper, restarts, seed, extra):
        seen = []

        def evaluate(points):
            points = np.clip(points, lower, upper)
            seen.append(points)
            return objective(points)

        results.append(nelder_mead(evaluate, x0, max_evals, scale))
        batches.append(seen)
    best = min(results, key=lambda r: r[1])
    return ((np.clip(best[0], lower, upper), best[1], sum(r[2] for r in results), best[3]),
            batches)


def lockstep_rounds(batches):
    """The rounds a lockstep driver makes of each search's list of batches:
    round r stacks the r-th batch of every search that has one, in search
    order."""
    rounds = []
    for r in range(max(len(b) for b in batches)):
        rounds.append(np.concatenate([b[r] for b in batches if r < len(b)]))
    return rounds
