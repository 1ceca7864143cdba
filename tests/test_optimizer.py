import numpy as np
import pytest

from lindmet.optimizer import OptimizerOptions, multi_start, nelder_mead


def sphere(x):
    return float(np.sum(x * x))


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
        res = nelder_mead(lambda x: float(abs(x[0] - 3)), np.array([0.0]))
        assert abs(res.x[0] - 3.0) <= 1e-6

    def test_eval_accounting_exact(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return sphere(x)

        res = nelder_mead(counted, np.ones(3))
        assert res.evals == calls[0]

    def test_budget_exhaustion_flagged(self):
        res = nelder_mead(sphere, np.ones(4), OptimizerOptions(max_evals=20))
        assert not res.converged
        assert res.evals >= 20

    def test_monotone_best_so_far(self):
        # the reported value is the best the search ever evaluated
        values = []

        def logged(x):
            values.append(rosenbrock(x))
            return values[-1]

        res = nelder_mead(logged, np.array([-1.2, 1.0]), OptimizerOptions(max_evals=400))
        assert res.fun == min(values)

    def test_non_finite_initial_simplex_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            nelder_mead(lambda x: float("nan"), np.zeros(2))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(sphere, np.array([]))


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
        points = []

        def recorded(x):
            points.append(x.copy())
            return sphere(x)

        res = nelder_mead(recorded, np.array([1.0, 1.0]),
                          OptimizerOptions(max_evals=7), scale=10.0)
        assert np.array_equal(points, [[1.0, 1.0], [1.5, 1.0], [1.0, 1.5], [1.5, 0.5],
                                       [1.0, 0.5], [0.75, 0.25], [0.25, 0.75]])
        assert np.array_equal(res.x, [0.75, 0.25])
        assert (res.fun, res.evals, res.converged) == (0.625, 7, False)


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
        def f(x):
            return float(np.sin(5 * x[0]) + 0.1 * x[0] ** 2)

        xs = np.arange(-10, 10, 1e-4)
        brute = xs[np.argmin(np.sin(5 * xs) + 0.1 * xs ** 2)]
        res = multi_start(f, [-10.0], [10.0], OptimizerOptions(restarts=20, seed=3))
        assert abs(res.x[0] - brute) <= 1e-3

    def test_seeded_determinism_bitwise(self):
        def f(x):
            return float(np.sum((x - 0.7) ** 2) + np.sin(x[0] * 9))

        opts = OptimizerOptions(restarts=5, seed=42)
        a = multi_start(f, -2 * np.ones(2), 2 * np.ones(2), opts)
        b = multi_start(f, -2 * np.ones(2), 2 * np.ones(2), opts)
        assert np.array_equal(a.x, b.x)
        assert a.fun == b.fun and a.evals == b.evals

    def test_respects_bounds(self):
        res = multi_start(lambda x: float(-np.sum(x)), np.zeros(2), np.ones(2),
                          OptimizerOptions(restarts=4, seed=0))
        assert np.all(res.x >= 0.0) and np.all(res.x <= 1.0)
        assert res.fun >= -2.0 - 1e-12

    def test_total_evals_accumulate(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return sphere(x)

        res = multi_start(counted, -np.ones(2), np.ones(2),
                          OptimizerOptions(restarts=3, seed=5, max_evals=50))
        assert res.evals == calls[0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            multi_start(sphere, np.ones(2), np.ones(2))

    def test_zero_outside_box_skipped(self):
        # when the box excludes the origin all starts are uniform draws
        res = multi_start(lambda x: float((x[0] - 1.5) ** 2),
                          np.array([1.0]), np.array([2.0]),
                          OptimizerOptions(restarts=3, seed=8))
        assert abs(res.x[0] - 1.5) <= 1e-5
        assert 1.0 <= res.x[0] <= 2.0

    def test_extra_starts_run_in_addition(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return sphere(x)

        opts = OptimizerOptions(restarts=2, seed=5, max_evals=40)
        plain = multi_start(counted, -np.ones(2), np.ones(2), opts)
        n_plain = calls[0]
        calls[0] = 0
        seeded = multi_start(counted, -np.ones(2), np.ones(2), opts,
                             extra_starts=[np.array([0.5, -0.5])])
        assert calls[0] > n_plain
        assert seeded.fun <= plain.fun + 1e-12
