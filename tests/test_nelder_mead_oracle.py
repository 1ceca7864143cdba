"""The shipped simplex search against the reference Nelder-Mead of
``tests/nelder_mead_oracle.py``: the same batches, bit for bit, and the same
values, evaluation counts, convergence flags and points, for one start, for
a multi-start over one problem and for three problems in lockstep."""
import numpy as np
import pytest

import nelder_mead_oracle as oracle
from lindmet.optimizer import OptimizerOptions, multi_start, nelder_mead


def sphere(points):
    return np.sum(points * points, axis=1)


def rosenbrock(points):
    a, b = points[:, :-1], points[:, 1:]
    return np.sum((1 - a) ** 2 + 100 * (b - a * a) ** 2, axis=1)


def plateau(points):
    # 0 inside a cube, 1 outside it: ties everywhere
    return (np.max(np.abs(points - 0.05), axis=1) > 0.3).astype(float)


def signed_zeros(points):
    # 0.0 or -0.0 by the sign of a wave in one coordinate, plus 1 away from
    # the origin: values that compare equal and differ in their bits
    return np.where(np.sum(np.abs(points), axis=1) > 0.4, 1.0,
                    np.copysign(0.0, np.sin(40 * points[:, 0])))


def nan_after_start(points):
    # finite on the initial simplexes, NaN beyond a wall that the search,
    # pulled towards a minimum just past it, runs into
    return np.where(points[:, -1] > 1.3, np.nan, sphere(points - 1.45))


def shrinking(points):
    # 0 at the origin and 1 elsewhere: a reflection and a contraction from
    # the origin both score 1, so the simplex shrinks
    return np.any(points != 0, axis=1).astype(float)


OBJECTIVES = [sphere, rosenbrock, plateau, signed_zeros, nan_after_start, shrinking]


def recorded(objective, calls):
    def f(points, *problem):
        calls.append(np.array(points))
        return objective(points)
    return f


def same(got, ref):
    """Results equal in every bit: the point, the value, evals, converged."""
    x, fun, evals, converged = ref
    return (got.x.tobytes() == x.tobytes()
            and np.float64(got.fun).tobytes() == np.float64(fun).tobytes()
            and (got.evals, got.converged) == (evals, converged))


def same_batches(got, ref):
    return len(got) == len(ref) and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                                        for a, b in zip(got, ref))


@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n, max_evals", [(1, 60), (3, 150), (6, 400)])
def test_nelder_mead_is_the_reference(objective, n, max_evals):
    x0 = np.linspace(0.1, 0.4, n)
    if objective is shrinking:
        x0 = np.zeros(n)
    calls, ref_calls = [], []
    got = nelder_mead(recorded(objective, calls), x0, OptimizerOptions(max_evals=max_evals),
                      scale=2.0)
    ref = oracle.nelder_mead(recorded(objective, ref_calls), x0, max_evals, 2.0)
    assert same_batches(calls, ref_calls)
    assert same(got, ref)


def test_the_objectives_reach_their_cases():
    # ties, signed zeros, NaN values and shrinks all occur
    def values(objective, x0):
        seen = []

        def f(points):
            seen.append((len(points), objective(points)))
            return seen[-1][1]

        oracle.nelder_mead(f, x0, 200, 2.0)
        return seen

    assert any(len(set(v.tolist())) < len(v) for _, v in values(plateau, np.full(3, 0.1)))
    zeros = np.concatenate([v[v == 0] for _, v in values(signed_zeros, np.full(3, 0.1))])
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert any(np.isnan(v).any() for _, v in values(nan_after_start, np.full(3, 0.1))[1:])
    assert any(size == 3 for size, _ in values(shrinking, np.zeros(3))[1:])


@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda f: f.__name__)
def test_multi_start_is_the_reference(objective):
    lower, upper = -np.ones(3), np.full(3, 1.5)
    options = OptimizerOptions(restarts=4, seed=7, max_evals=120)
    calls = []
    got = multi_start(recorded(objective, calls), lower, upper, options,
                      extra_starts=[np.array([0.2, -3.0, 0.4])])
    ref, batches = oracle.multi_start(objective, lower, upper, 120, 4, 7,
                                      [np.array([0.2, -3.0, 0.4])])
    # every start's batches, round by round, in one call per round
    assert same_batches(calls, oracle.lockstep_rounds(batches))
    assert same(got, ref)


@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda f: f.__name__)
def test_three_problems_are_the_reference(objective):
    # problem p is the objective moved by p / 4 along every axis, each with
    # its own seed, budget and restarts
    lower, upper = -np.ones(2), np.full(2, 1.5)
    settings = [(2, 3, 60), (3, 4, 90), (1, 5, None)]
    options = [OptimizerOptions(restarts=r, seed=s, max_evals=m) for r, s, m in settings]
    extras = [[], [np.array([0.5, 0.5])], []]
    calls = []

    def shifted(points, problem):
        calls.append((np.array(points), problem.copy()))
        return objective(points - problem[:, None] / 4)

    got = multi_start(shifted, lower, upper, options, extras)
    batches = []
    for p, ((restarts, seed, max_evals), extra) in enumerate(zip(settings, extras)):
        ref, starts = oracle.multi_start(lambda points: objective(points - p / 4), lower,
                                         upper, max_evals or 200 * 2, restarts, seed, extra)
        assert same(got[p], ref)
        batches += starts
    assert same_batches([points for points, _ in calls], oracle.lockstep_rounds(batches))
