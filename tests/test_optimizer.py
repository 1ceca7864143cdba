import numpy as np
import pytest

from lindmet.optimizer import OptimizerOptions, multi_start, nelder_mead


def rows(f):
    """A function of one point as an objective: its value at each row of a stack."""
    return lambda points: np.array([f(x) for x in points])


@rows
def sphere(x):
    return float(np.sum(x * x))


@rows
def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestNelderMead:
    def test_sphere_n5(self):
        res = nelder_mead(sphere, np.ones(5))
        assert np.max(np.abs(res.x)) <= 1e-6

    def test_rosenbrock(self):
        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]))
        assert np.max(np.abs(res.x - 1.0)) <= 1e-4

    def test_nonsmooth_absolute_value(self):
        res = nelder_mead(rows(lambda x: float(abs(x[0] - 3))), np.array([0.0]))
        assert abs(res.x[0] - 3.0) <= 1e-6

    def test_eval_accounting_exact(self):
        calls = [0]

        @rows
        def counted(x):
            calls[0] += 1
            return float(np.sum(x * x))

        # evals counts points, not calls
        res = nelder_mead(counted, np.ones(3))
        assert res.evals == calls[0]

    def test_budget_exhaustion_flagged(self):
        res = nelder_mead(sphere, np.ones(4), OptimizerOptions(max_evals=20))
        assert not res.converged
        assert res.evals >= 20

    def test_budget_checked_once_per_iteration(self):
        # the initial simplex is never cut short
        assert nelder_mead(sphere, np.zeros(10), OptimizerOptions(max_evals=3)).evals == 11
        # nor is a shrink, so a start can end n + 1 evaluations past the budget
        rng = np.random.default_rng(0)
        noise = rows(lambda x: float(rng.random()))
        over = [nelder_mead(noise, np.zeros(3), OptimizerOptions(max_evals=b)).evals - b
                for b in range(5, 60)]
        assert max(over) == 3 + 1

    def test_monotone_best_so_far(self):
        # the reported value is the best the search ever evaluated
        values = []

        def logged(points):
            values.extend(rosenbrock(points))
            return values[-len(points):]

        res = nelder_mead(logged, np.array([-1.2, 1.0]), OptimizerOptions(max_evals=400))
        assert res.fun == min(values)

    def test_non_finite_initial_simplex_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            nelder_mead(rows(lambda x: float("nan")), np.zeros(2))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(sphere, np.array([]))

    def test_one_value_per_point_required(self):
        with pytest.raises(ValueError, match="as many values"):
            nelder_mead(lambda points: float(np.sum(points)), np.zeros(2))


class TestGoldenTrace:
    """First three iterations on f(x,y) = x^2 + y^2 from (1,1), step
    0.05 * scale 10 = 0.5.

    Hand-traced with the standard coefficients (1, 2, 0.5, 0.5), after the
    initial simplex (1, 1), (1.5, 1), (1, 1.5):
      iter 1 reflect (1.5, 0.5), f = 2.5, accepted
      iter 2 reflect (1, 0.5), f = 1.25, then expand (0.75, 0.25), f = 0.625
      iter 3 reflect (0.25, 0.75), f = 0.625, accepted
    All coordinates are dyadic, so comparisons are exact.
    """

    def test_three_iterations(self):
        calls = []

        def recorded(points):
            calls.append(points.copy())
            return sphere(points)

        res = nelder_mead(recorded, np.array([1.0, 1.0]),
                          OptimizerOptions(max_evals=7), scale=10.0)
        # the initial simplex in one call, then one point per call
        assert [len(c) for c in calls] == [3, 1, 1, 1, 1]
        assert np.array_equal(np.concatenate(calls),
                              [[1.0, 1.0], [1.5, 1.0], [1.0, 1.5], [1.5, 0.5],
                               [1.0, 0.5], [0.75, 0.25], [0.25, 0.75]])
        assert np.array_equal(res.x, [0.75, 0.25])
        assert (res.fun, res.evals, res.converged) == (0.625, 7, False)

    def test_shrink_is_one_call(self):
        # 0 at the origin and 1 elsewhere: from the simplex (0, 0), (0.5, 0),
        # (0, 0.5) the reflection (0.5, -0.5) and the inside contraction
        # (0.125, 0.25) both score 1, so the simplex shrinks towards the origin
        calls = []

        def recorded(points):
            calls.append(points.copy())
            return np.any(points != 0, axis=1).astype(float)

        res = nelder_mead(recorded, np.zeros(2), OptimizerOptions(max_evals=7), scale=10.0)
        assert [len(c) for c in calls] == [3, 1, 1, 2]
        assert np.array_equal(np.concatenate(calls),
                              [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, -0.5],
                               [0.125, 0.25], [0.25, 0.0], [0.0, 0.25]])
        assert (res.fun, res.evals, res.converged) == (0.0, 7, False)


class TestOptions:
    @pytest.mark.parametrize("max_evals", [0, -3])
    def test_budget_below_one_rejected(self, max_evals):
        with pytest.raises(ValueError, match="max_evals"):
            OptimizerOptions(max_evals=max_evals)
        assert OptimizerOptions(max_evals=1).max_evals == 1
        assert OptimizerOptions(max_evals=None).max_evals is None

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            OptimizerOptions(seed=-1)
        assert OptimizerOptions(seed=0).seed == 0


class TestMultiStart:
    def test_single_restart_equals_plain_run_from_zero(self):
        opts = OptimizerOptions(restarts=1, seed=1)
        a = multi_start(sphere, -np.ones(3), np.ones(3), opts)
        b = nelder_mead(sphere, np.zeros(3), scale=1.0)
        assert np.array_equal(a.x, b.x)
        assert a.fun == b.fun

    def test_multimodal_against_brute_force(self):
        @rows
        def f(x):
            return float(np.sin(5 * x[0]) + 0.1 * x[0] ** 2)

        xs = np.arange(-10, 10, 1e-4)
        brute = xs[np.argmin(np.sin(5 * xs) + 0.1 * xs ** 2)]
        res = multi_start(f, [-10.0], [10.0], OptimizerOptions(restarts=20, seed=3))
        assert abs(res.x[0] - brute) <= 1e-3

    def test_seeded_determinism_bitwise(self):
        @rows
        def f(x):
            return float(np.sum((x - 0.7) ** 2) + np.sin(x[0] * 9))

        opts = OptimizerOptions(restarts=5, seed=42)
        a = multi_start(f, -2 * np.ones(2), 2 * np.ones(2), opts)
        b = multi_start(f, -2 * np.ones(2), 2 * np.ones(2), opts)
        assert np.array_equal(a.x, b.x)
        assert a.fun == b.fun and a.evals == b.evals

    def test_respects_bounds(self):
        res = multi_start(rows(lambda x: float(-np.sum(x))), np.zeros(2), np.ones(2),
                          OptimizerOptions(restarts=4, seed=0))
        assert np.all(res.x >= 0.0) and np.all(res.x <= 1.0)
        assert res.fun >= -2.0 - 1e-12

    def test_total_evals_accumulate(self):
        calls = [0]

        @rows
        def counted(x):
            calls[0] += 1
            return float(np.sum(x * x))

        res = multi_start(counted, -np.ones(2), np.ones(2),
                          OptimizerOptions(restarts=3, seed=5, max_evals=50))
        assert res.evals == calls[0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            multi_start(sphere, np.ones(2), np.ones(2))

    def test_empty_box_rejected(self):
        # as nelder_mead rejects an empty start, before any work
        calls = []
        for options in (OptimizerOptions(), [OptimizerOptions()] * 2):
            with pytest.raises(ValueError, match="at least one variable"):
                multi_start(lambda *args: calls.append(args), [], [], options)
        assert calls == []

    def test_zero_outside_box_skipped(self):
        # when the box excludes the origin all starts are uniform draws
        res = multi_start(rows(lambda x: float((x[0] - 1.5) ** 2)),
                          np.array([1.0]), np.array([2.0]),
                          OptimizerOptions(restarts=3, seed=8))
        assert abs(res.x[0] - 1.5) <= 1e-5
        assert 1.0 <= res.x[0] <= 2.0

    def test_extra_starts_run_in_addition(self):
        calls = [0]

        @rows
        def counted(x):
            calls[0] += 1
            return float(np.sum(x * x))

        opts = OptimizerOptions(restarts=2, seed=5, max_evals=40)
        plain = multi_start(counted, -np.ones(2), np.ones(2), opts)
        n_plain = calls[0]
        calls[0] = 0
        seeded = multi_start(counted, -np.ones(2), np.ones(2), opts,
                             extra_starts=[np.array([0.5, -0.5])])
        assert calls[0] > n_plain
        assert seeded.fun <= plain.fun + 1e-12


class TestLockstep:
    """Several problems' starts advance together, each round one objective
    call, and each problem's result is bit for bit its own call's."""

    @staticmethod
    def shifted(points, problem):
        # problem p is the Rosenbrock function moved by p along each axis
        return np.array([float((1 - x[0] + p) ** 2 + 100 * (x[1] - p - (x[0] - p) ** 2) ** 2)
                         for x, p in zip(points, problem)])

    def test_problems_equal_separate_calls(self):
        options = [OptimizerOptions(restarts=3, seed=s, max_evals=m)
                   for s, m in ((1, 40), (2, 90), (3, 25))]
        extras = [[], [np.array([0.5, 0.5])], []]
        calls = []

        def recorded(points, problem):
            calls.append(problem.copy())
            return self.shifted(points, problem)

        got = multi_start(recorded, -2 * np.ones(2), 2 * np.ones(2), options, extras)
        for p, (opts, extra) in enumerate(zip(options, extras)):
            alone = multi_start(lambda points: self.shifted(points, [p] * len(points)),
                                -2 * np.ones(2), 2 * np.ones(2), opts, extra)
            assert got[p].x.tobytes() == alone.x.tobytes()
            assert (got[p].fun, got[p].evals, got[p].converged) == (
                alone.fun, alone.evals, alone.converged)
        # the first round holds every start's initial simplex, in order, and
        # each later round at most one batch per start
        assert calls[0].tolist() == [0] * 9 + [1] * 12 + [2] * 9
        assert sum(len(c) for c in calls) == sum(r.evals for r in got)
        assert len(calls) < sum(r.evals for r in got) / 3

    def test_one_problem_in_a_list_is_the_plain_call(self):
        opts = OptimizerOptions(restarts=2, seed=4, max_evals=50)
        [got] = multi_start(lambda points, problem: sphere(points), -np.ones(3), np.ones(3),
                            [opts])
        plain = multi_start(sphere, -np.ones(3), np.ones(3), opts)
        assert got.x.tobytes() == plain.x.tobytes()
        assert (got.fun, got.evals, got.converged) == (plain.fun, plain.evals, plain.converged)

    def test_extra_starts_per_problem(self):
        with pytest.raises(ValueError, match="one sequence of starts per problem"):
            multi_start(lambda points, problem: sphere(points), -np.ones(2), np.ones(2),
                        [OptimizerOptions(restarts=1)] * 2, [[np.zeros(2)]])
