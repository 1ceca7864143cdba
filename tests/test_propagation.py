import numpy as np
import pytest
import scipy.linalg

from lindmet._kern import _pykern
from lindmet import _kern
from lindmet.channels import build_scenario
from lindmet.liouville import lindbladian, unvectorize, vectorize
from lindmet.propagation import (ControlSchedule, PropagationError, SlicedDynamics,
                                 check_evolved_state)
from lindmet.schemes import ghz_state, plus_state

OMEGA0 = 2 * np.pi


def taylor_expm(A, terms=40):
    """Independent reference: scaled Taylor series, squared back up."""
    A = np.asarray(A, dtype=complex)
    norm = np.linalg.norm(A, 1)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    B = A / 2**s
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ B / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def model_with(scenario="parallel-dephasing-1q", omega0=OMEGA0, **rates):
    return build_scenario(scenario, omega0, rates or None)


def dynamics(scenario="parallel-dephasing-1q", omega0=OMEGA0, **rates):
    return SlicedDynamics(model_with(scenario, omega0, **rates))


class TestControlSchedule:
    def test_basic_properties(self):
        s = ControlSchedule(np.zeros((5, 2)), 0.5)
        assert (s.K, s.L, s.dt) == (5, 2, 0.1)

    def test_zero_constructor(self):
        s = ControlSchedule.zero(4, 3, 2.0)
        assert s.amplitudes.shape == (4, 3)
        assert not s.amplitudes.any()

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ControlSchedule(np.zeros(5), 1.0)
        with pytest.raises(ValueError):
            ControlSchedule(np.full((2, 2), np.inf), 1.0)
        with pytest.raises(ValueError):
            ControlSchedule(np.zeros((2, 2)), 0.0)

    def test_amplitude_bound(self):
        ControlSchedule(np.full((2, 2), 3.0), 1.0, u_max=3.0)
        with pytest.raises(ValueError, match="bound"):
            ControlSchedule(np.full((2, 2), 3.1), 1.0, u_max=3.0)

    def test_grid_immutable(self):
        s = ControlSchedule(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            s.amplitudes[0, 0] = 1.0


def one_slice_propagator(dyn, amplitudes, dt):
    """exp(L dt) of a one-slice schedule, column by column from evolve_vectorized."""
    s = ControlSchedule(np.atleast_2d(np.asarray(amplitudes, dtype=float)), dt)
    basis = np.eye(dyn.dim ** 2, dtype=complex)
    return np.column_stack([dyn.evolve_vectorized(s, e) for e in basis])


class TestSliceBuild:
    def test_full_rotation_is_identity(self):
        T = 2 * np.pi / OMEGA0
        P = one_slice_propagator(dynamics(gamma=0.0), [0.0, 0.0], T)
        assert np.max(np.abs(P - np.eye(4))) <= 1e-10

    def test_dephasing_factor_on_coherence(self):
        gamma, dt = 10.0, 0.05
        P = one_slice_propagator(dynamics(omega0=0.0, gamma=gamma), [0.0, 0.0], dt)
        out = unvectorize(P @ vectorize(plus_state(1)))
        assert abs(out[0, 1] - 0.5 * np.exp(-gamma * dt)) <= 1e-12

    def test_drift_cancellation_control(self):
        # u_z = -omega0 cancels the drift: the slice generator is the bare dissipator
        dyn = SlicedDynamics(model_with("transverse-dephasing", gamma=0.1))
        gen = dyn.constant_generator() - OMEGA0 * dyn.control_supers[0]
        assert np.max(np.abs(gen - dyn.noise_super)) <= 1e-12
        P = one_slice_propagator(dyn, [-OMEGA0], 0.3)
        assert np.max(np.abs(P - scipy.linalg.expm(dyn.noise_super * 0.3))) <= 1e-12


class TestEvolve:
    def test_larmor_quarter_turn(self):
        T = (np.pi / 2) / OMEGA0
        rho = dynamics(gamma=0.0).evolve(ControlSchedule.zero(4, 2, T), plus_state(1))
        r = np.array([2 * rho[1, 0].real, 2 * rho[1, 0].imag,
                      (rho[0, 0] - rho[1, 1]).real])
        assert np.max(np.abs(r - np.array([0.0, 1.0, 0.0]))) <= 1e-10

    def test_dephasing_coherence_magnitude(self):
        rho = dynamics(gamma=10.0).evolve(ControlSchedule.zero(5, 2, 0.1), plus_state(1))
        assert abs(abs(rho[0, 1]) - 0.5 * np.exp(-1.0)) <= 1e-12

    def test_semigroup_slicing_equivalence(self):
        dyn = dynamics(gamma=10.0)
        rho0 = plus_state(1)
        amps5 = np.full((5, 2), 7.0)
        amps1 = np.full((1, 2), 7.0)
        r5 = dyn.evolve(ControlSchedule(amps5, 0.2), rho0)
        r1 = dyn.evolve(ControlSchedule(amps1, 0.2), rho0)
        assert np.max(np.abs(r5 - r1)) <= 1e-10

    def test_omega_override_keeps_schedule(self):
        model = model_with(gamma=10.0)
        s = ControlSchedule(np.full((2, 2), 1.0), 0.1)
        dyn = SlicedDynamics(model)
        a = dyn.evolve(s, plus_state(1), omega0=OMEGA0)
        b = dyn.evolve(s, plus_state(1))
        assert np.array_equal(a, b)
        c = dyn.evolve(s, plus_state(1), omega0=OMEGA0 + 0.5)
        assert np.max(np.abs(a - c)) > 1e-6

    def test_field_count_mismatch_rejected(self):
        for s in (ControlSchedule(np.ones((2, 3)), 0.1), ControlSchedule.zero(2, 3, 0.1)):
            with pytest.raises(ValueError, match="control"):
                dynamics().evolve(s, plus_state(1))

    def test_invalid_input_state_detected(self):
        with pytest.raises(PropagationError, match="trace"):
            dynamics().evolve(ControlSchedule.zero(2, 2, 0.1), np.eye(2, dtype=complex))


class TestCheckEvolvedState:
    def test_accepts_valid(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = A @ A.conj().T
        check_evolved_state(rho / np.trace(rho))

    def test_rejects_non_hermitian(self):
        with pytest.raises(PropagationError, match="Hermitian"):
            check_evolved_state(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(PropagationError, match="trace"):
            check_evolved_state(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(PropagationError, match="negative"):
            check_evolved_state(np.diag([1.5, -0.5]))

    def test_rejects_nan(self):
        # a NaN fails the first check it reaches: the trace, or else Hermiticity
        nan_coherence = plus_state(1)
        nan_coherence[0, 1] = nan_coherence[1, 0] = np.nan
        for rho in (np.full((2, 2), np.nan, dtype=complex), nan_coherence):
            with pytest.raises(PropagationError):
                check_evolved_state(rho)


class TestTrajectory:
    """The state after each prefix of a schedule: the path the evolution takes."""

    def test_points_on_analytic_spiral(self):
        gamma = 10.0
        dyn = dynamics(gamma=gamma)
        for k in range(1, 6):
            t = 0.02 * k
            rho = dyn.evolve(ControlSchedule.zero(k, 2, t), plus_state(1))
            expected = 0.5 * np.exp(-gamma * t) * np.exp(-1j * OMEGA0 * t)
            assert abs(rho[0, 1] - expected) <= 1e-10

    def test_last_point_equals_evolve_bitwise(self):
        # one slice at a time from the previous state, against one call
        dyn = dynamics(gamma=10.0)
        rng = np.random.default_rng(0)
        s = ControlSchedule(rng.uniform(-20, 20, (6, 2)), 0.2)
        rho = plus_state(1)
        for row in s.amplitudes:
            rho = dyn.evolve(ControlSchedule(row[None, :], s.dt), rho)
        assert np.array_equal(rho, dyn.evolve(s, plus_state(1)))


class TestPhysicalityInvariants:
    @pytest.mark.parametrize("scenario", ["parallel-dephasing-1q",
                                          "parallel-dephasing-2q",
                                          "transverse-dephasing",
                                          "amplitude-damping"])
    def test_random_schedules_stay_physical(self, scenario):
        rng = np.random.default_rng(hash(scenario) % 2**32)
        model = build_scenario(scenario, OMEGA0)
        dyn = SlicedDynamics(model)
        rho0 = plus_state(1) if model.dim == 2 else ghz_state(2)
        for _ in range(10):
            amps = rng.uniform(-50, 50, (6, model.n_controls))
            T = float(rng.uniform(0.01, 1.0))
            rho = dyn.evolve(ControlSchedule(amps, T), rho0)
            assert abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_composition_split(self):
        model = model_with(gamma=10.0)
        dyn = SlicedDynamics(model)
        rng = np.random.default_rng(3)
        amps = rng.uniform(-30, 30, (8, 2))
        full = dyn.evolve(ControlSchedule(amps, 0.4), plus_state(1))
        mid = dyn.evolve(ControlSchedule(amps[:4], 0.2), plus_state(1))
        out = dyn.evolve(ControlSchedule(amps[4:], 0.2), mid)
        assert np.max(np.abs(full - out)) <= 1e-9


class TestMatrixExponential:
    @pytest.mark.parametrize("kernel", [_kern, _pykern])
    def test_against_taylor_oracle(self, kernel):
        rng = np.random.default_rng(7)
        model = model_with(gamma=10.0)
        dyn = SlicedDynamics(model)
        for _ in range(10):
            u = rng.uniform(-40, 40, 2)
            L = dyn.constant_generator() + u[0] * dyn.control_supers[0] \
                + u[1] * dyn.control_supers[1]
            dt = float(rng.uniform(0.001, 0.3))
            ours = kernel.expm(L * dt)
            ref = taylor_expm(L * dt)
            assert np.max(np.abs(ours - ref)) <= 1e-9

    def test_propagator_preserves_trace(self):
        P = one_slice_propagator(dynamics(gamma=10.0), [5.0, 5.0], 0.05)
        bra_identity = vectorize(np.eye(2)).conj()
        assert np.max(np.abs(bra_identity @ P - bra_identity)) <= 1e-10

    def test_lindbladian_route_matches_dynamics(self):
        # the module-level lindbladian and the cached dynamics agree
        model = model_with(gamma=3.0)
        dyn = SlicedDynamics(model)
        L_direct = lindbladian(model.omega0 * model.generator, model.channel)
        assert np.max(np.abs(L_direct - dyn.constant_generator())) <= 1e-12


def per_slice_reference(L0, ctrls, amps, dt, v0):
    """One scipy.linalg.expm call per slice, each generator built as
    L0 + u_1 C_1 + u_2 C_2 + ... in field order, skipping zero amplitudes."""
    v = np.array(v0, dtype=complex)
    for k in range(amps.shape[0]):
        A = L0.copy()
        for l in range(amps.shape[1]):
            if amps[k, l] != 0.0:
                A += amps[k, l] * ctrls[l]
        v = scipy.linalg.expm(A * dt) @ v
    return v


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPythonKernel:
    """The shipped pure-Python kernel against a per-slice expm loop, bit for bit."""

    def _problem(self, m, K, L, seed):
        rng = np.random.default_rng(seed)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return cplx(m, m), cplx(L, m, m), rng.uniform(-3, 3, (K, L)), cplx(m)

    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("K, L", [(1, 0), (1, 2), (7, 2), (20, 4)])
    def test_matches_per_slice_expm(self, m, K, L):
        L0, ctrls, amps, v0 = self._problem(m, K, L, seed=m * 100 + K * 10 + L)
        got = _pykern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert bitwise_equal(got, per_slice_reference(L0, ctrls, amps, 0.05, v0))

    @pytest.mark.parametrize("m", [4, 16])
    def test_signed_zero_amplitudes_skipped(self, m):
        L0, ctrls, amps, v0 = self._problem(m, 6, 3, seed=m)
        amps[0] = 0.0
        amps[1] = -0.0
        amps[2, 1] = -0.0
        amps[3, 0] = amps[3, 2] = 0.0
        got = _pykern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert bitwise_equal(got, per_slice_reference(L0, ctrls, amps, 0.05, v0))
        # an all-zero slice evolves under L0 alone
        first = _pykern.propagate_schedule(L0, ctrls, amps[:1], 0.05, v0)
        assert bitwise_equal(first, scipy.linalg.expm(L0 * 0.05) @ v0)

    @pytest.mark.parametrize("m", [4, 16])
    def test_runs_of_equal_rows(self, m):
        L0, ctrls, amps, v0 = self._problem(m, 9, 2, seed=m + 1)
        amps[1:4] = amps[0]
        amps[5:9] = amps[4]
        got = _pykern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert bitwise_equal(got, per_slice_reference(L0, ctrls, amps, 0.05, v0))

    def test_physical_generators(self):
        dyn = dynamics("parallel-dephasing-2q")
        rng = np.random.default_rng(5)
        amps = rng.uniform(-40, 40, (20, dyn.model.n_controls))
        L0, v0 = dyn.constant_generator(), vectorize(ghz_state(2))
        got = _pykern.propagate_schedule(L0, dyn.control_supers, amps, 0.015, v0)
        assert bitwise_equal(got, per_slice_reference(L0, dyn.control_supers, amps,
                                                      0.015, v0))

    def test_shape_errors(self):
        L0, ctrls, amps, v0 = self._problem(4, 3, 2, seed=9)
        cases = {
            "L0 must be square": (L0[:, :3], ctrls, amps, 0.05, v0),
            "field count": (L0, ctrls[:1], amps, 0.05, v0),
            "control generators must match": (L0, ctrls[:, :3, :3], amps, 0.05, v0),
            "state vector length": (L0, ctrls, amps, 0.05, np.zeros(5, dtype=complex)),
        }
        for message, args in cases.items():
            with pytest.raises(ValueError, match=message):
                _pykern.propagate_schedule(*args)
