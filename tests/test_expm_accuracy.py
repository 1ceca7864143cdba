"""The kernel's exponential against a 50-digit mpmath oracle, on the blocks
the runs exponentiate and on complex matrices.

The bound, relative to the largest entry of the exact exponential, is
2 eps max(4, ||A||_1), eps the float64 rounding unit: 1.8e-15 on a search's
blocks, whose 1-norms are below 4, and 1.3e-13 on the sweep's long-T blocks,
whose 1-norms reach 295. Measured, the kernel is within 0.75 eps ||A||_1 at
most (4.8e-14 on a block of 1-norm 292, 7e-16 on search blocks), while
``scipy.linalg.expm`` is off by up to 2.6e-13 on the long-T blocks."""
import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from lindmet import _kern, schemes  # noqa: E402
from lindmet.liouville import vectorize  # noqa: E402
from lindmet.optimizer import OptimizerOptions  # noqa: E402
import test_schemes  # noqa: E402

EPS = np.finfo(np.float64).eps
DIGITS = 50


def exact_expm(a):
    """exp(a) to 50 digits, rounded to complex128."""
    with mpmath.workdps(DIGITS):
        E = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(E[i, j]) for j in range(E.cols)] for i in range(E.rows)])


def within_bound(got, a):
    ref = exact_expm(a)
    bound = 2 * EPS * max(4.0, np.linalg.norm(a, 1))
    return np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


def captured_blocks(run):
    """The generators ``run()`` hands to ``_kern.expm_stack``: its three of
    largest 1-norm and two more drawn from the rest."""
    blocks, real = [], _kern.expm_stack

    def spy(A):
        blocks.append(A.copy())
        return real(A)

    _kern.expm_stack = spy
    try:
        run()
    finally:
        _kern.expm_stack = real
    B = np.concatenate(blocks)
    order = np.argsort(np.linalg.norm(B, 1, axis=(1, 2)))
    return B[[*order[-3:], *np.random.default_rng(0).choice(order[:-3], 2, replace=False)]]


@pytest.mark.parametrize("scheme, scenario, rates, grid", test_schemes.SWEEP_SPECIAL_SLICES,
                         ids=[f"{s}-{c}" for s, c, *_ in test_schemes.SWEEP_SPECIAL_SLICES])
def test_sweep_blocks(scheme, scenario, rates, grid):
    cfg = test_schemes.config(scheme, scenario, grid, rates=rates)
    blocks = captured_blocks(lambda: schemes.run_scheme(cfg))
    assert blocks.dtype == np.float64 and blocks.shape[1:] == (8, 8)
    if scenario == "amplitude-damping":
        assert np.linalg.norm(blocks[0], 1) > 280  # the long-T blocks
    for a in blocks:
        assert within_bound(_kern.expm_stack(a[None])[0], a)


@pytest.mark.parametrize("scheme, scenario", test_schemes.TestPreparedObjective.REGISTERS)
def test_search_blocks(scheme, scenario):
    # two random points of a search at T = 0.3 s, K = 20, on every register
    K, T = 20, 0.3
    cfg = test_schemes.config(scheme, scenario, [T], K=K,
                              optimizer=OptimizerOptions(restarts=1, max_evals=1))
    dyn, rho0 = schemes.prepare(cfg)
    objective = schemes._objective(dyn.prepare(vectorize(rho0), [T / K]), K,
                                   dyn.model.n_controls, [0])
    u_max = cfg.resolved_u_max
    points = np.random.default_rng(1).uniform(-u_max, u_max, (2, K * dyn.model.n_controls))
    for a in captured_blocks(lambda: objective(points)):
        assert within_bound(_kern.expm_stack(a[None])[0], a)


@pytest.mark.parametrize("m", [4, 16])
def test_complex_matrices(m):
    rng = np.random.default_rng(m)
    for scale in (1e-3, 0.5, 3.0, 30.0):
        a = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(m)
        assert within_bound(_kern.expm(a), a)
