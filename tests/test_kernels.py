"""The compiled kernel, when it is built: against scipy, and against the
pure-Python kernel that tests/test_propagation.py pins bit for bit."""
import numpy as np
import pytest
import scipy.linalg

from lindmet import _kern
from lindmet._kern import _pykern

compiled = pytest.importorskip("lindmet._kern._cykern",
                               reason="compiled kernel not built")


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestExpm:
    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 80.0])
    def test_matches_scipy(self, m, scale):
        rng = np.random.default_rng(m * 100 + int(scale))
        A = scale * random_complex(rng, (m, m))
        ref = scipy.linalg.expm(A)
        got = compiled.expm(A)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_zero_matrix(self):
        assert np.allclose(compiled.expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            compiled.expm(np.zeros((2, 3)))

    def test_input_not_modified(self):
        A = np.diag([1.0 + 0j, 2.0])
        before = A.copy()
        compiled.expm(A)
        assert np.array_equal(A, before)


class TestPropagateSchedule:
    def _problem(self, m=4, K=7, L=2, seed=0):
        rng = np.random.default_rng(seed)
        L0 = random_complex(rng, (m, m))
        ctrls = random_complex(rng, (L, m, m))
        amps = rng.uniform(-3, 3, (K, L))
        v0 = random_complex(rng, m)
        return L0, ctrls, amps, v0

    def test_matches_stepwise_scipy(self):
        L0, ctrls, amps, v0 = self._problem()
        dt = 0.05
        v = v0.copy()
        for k in range(amps.shape[0]):
            A = L0 + amps[k, 0] * ctrls[0] + amps[k, 1] * ctrls[1]
            v = scipy.linalg.expm(A * dt) @ v
        got = compiled.propagate_schedule(L0, ctrls, amps, dt, v0)
        assert np.max(np.abs(got - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_backends_agree(self):
        L0, ctrls, amps, v0 = self._problem(m=16, K=5, L=3, seed=1)
        a = compiled.propagate_schedule(L0, ctrls, amps, 0.02, v0)
        b = _pykern.propagate_schedule(L0, ctrls, amps, 0.02, v0)
        assert np.max(np.abs(a - b)) <= 1e-11 * max(1.0, np.max(np.abs(b)))

    def test_trajectory_contract(self):
        L0, ctrls, amps, v0 = self._problem(seed=2)
        traj = compiled.propagate_schedule(L0, ctrls, amps, 0.05, v0, trajectory=True)
        assert traj.shape == (amps.shape[0] + 1, v0.size)
        assert np.array_equal(traj[0], v0)
        final = compiled.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert np.array_equal(traj[-1], final)

    def test_zero_fields(self):
        rng = np.random.default_rng(3)
        L0 = random_complex(rng, (4, 4))
        v0 = random_complex(rng, 4)
        got = compiled.propagate_schedule(L0, np.zeros((0, 4, 4), dtype=complex),
                                          np.zeros((3, 0)), 0.1, v0)
        ref = scipy.linalg.expm(L0 * 0.3) @ v0
        assert np.max(np.abs(got - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))

    def test_shape_errors(self):
        L0 = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValueError):
            compiled.propagate_schedule(L0, np.zeros((1, 4, 4), dtype=complex),
                                        np.zeros((2, 2)), 0.1, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            compiled.propagate_schedule(L0, np.zeros((0, 4, 4), dtype=complex),
                                        np.zeros((2, 0)), 0.1, np.zeros(5, dtype=complex))

    def test_non_contiguous_inputs(self):
        L0, ctrls, amps, v0 = self._problem(seed=4)
        big = np.zeros((8, 8), dtype=complex)
        big[::2, ::2] = L0
        view = big[::2, ::2]
        a = compiled.propagate_schedule(view, ctrls, amps, 0.05, v0)
        b = compiled.propagate_schedule(np.ascontiguousarray(view), ctrls, amps, 0.05, v0)
        assert np.array_equal(a, b)


def test_backend_reports_name():
    assert _kern.BACKEND in ("compiled", "python")
