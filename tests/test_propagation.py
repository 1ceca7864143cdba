import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from lindmet import _kern
from lindmet.channels import SCENARIOS, ancilla_extend, build_scenario
from lindmet.liouville import NoiseChannel, lindbladian, unvectorize, vectorize
from lindmet.propagation import (ControlSchedule, PropagationError, SlicedDynamics,
                                 check_evolved_state, evolved_state_faults)
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
        for total_time in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ControlSchedule(np.zeros((2, 1)), total_time)

    def test_amplitude_bound(self):
        ControlSchedule(np.full((2, 2), 3.0), 1.0, u_max=3.0)
        with pytest.raises(ValueError, match="bound"):
            ControlSchedule(np.full((2, 2), 3.1), 1.0, u_max=3.0)
        # a bound that is not positive and finite is refused, even with zero amplitudes
        for u_max in (np.nan, np.inf, 0.0, -3.0):
            with pytest.raises(ValueError, match="u_max must be positive and finite"):
                ControlSchedule(np.zeros((2, 2)), 1.0, u_max=u_max)

    def test_grid_immutable(self):
        s = ControlSchedule(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            s.amplitudes[0, 0] = 1.0


def one_slice_propagator(dyn, amplitudes, dt):
    """exp(L dt) of a one-slice schedule, column by column from evolve_vectorized."""
    s = ControlSchedule(np.atleast_2d(np.asarray(amplitudes, dtype=float)), dt)
    basis = np.eye(dyn.dim ** 2, dtype=complex)
    return np.column_stack([dyn.evolve_vectorized(s, e)[0] for e in basis])


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
        # an override is the model built at that frequency, bit for bit
        other = SlicedDynamics(model_with(omega0=OMEGA0 + 0.5, gamma=10.0))
        assert c.tobytes() == other.evolve(s, plus_state(1)).tobytes()

    def test_schedules_at_several_times(self):
        # one amplitude grid at three total times, at one frequency
        dyn = dynamics(gamma=10.0)
        amps = np.random.default_rng(4).uniform(-20, 20, (3, 2))
        scheds = [ControlSchedule(amps, T) for T in (0.05, 0.1, 0.4)]
        v0 = vectorize(plus_state(1))
        states, derivatives = dyn.evolve_vectorized(scheds, v0, OMEGA0 + 0.5)
        assert states.shape == derivatives.shape == (3, 4)
        for s, v, dv in zip(scheds, states, derivatives):
            one, done = dyn.evolve_vectorized(s, v0, OMEGA0 + 0.5)
            assert v.tobytes() == one.tobytes() and dv.tobytes() == done.tobytes()
        # a schedule on another grid of the same shape joins the stack, and
        # one of another K or L does not
        other = ControlSchedule(amps + 1.0, 0.2)
        states, derivatives = dyn.evolve_vectorized(scheds + [other], v0, OMEGA0 + 0.5)
        one, done = dyn.evolve_vectorized(other, v0, OMEGA0 + 0.5)
        assert states[3].tobytes() == one.tobytes() and derivatives[3].tobytes() == done.tobytes()
        for shape in ((4, 2), (3, 3)):
            with pytest.raises(ValueError, match="one K x L shape"):
                dyn.evolve_vectorized(scheds + [ControlSchedule(np.zeros(shape), 0.2)], v0)

    @pytest.mark.parametrize("name", ["parallel-dephasing-1q", "parallel-dephasing-2q",
                                      "ancilla"])
    def test_schedules_on_several_grids(self, name):
        # N schedules of one K x L shape, each with its own grid and time, as
        # a search's reported optima are: each state and derivative bit for
        # bit its own call's, from evolve_vectorized and from drho_domega
        from lindmet.metrology import drho_domega

        model = (ancilla_extend(model_with("amplitude-damping")) if name == "ancilla"
                 else model_with(name))
        dyn = SlicedDynamics(model)
        rng = np.random.default_rng(len(name))
        K, L = 5, model.n_controls
        grids = [rng.uniform(-40, 40, (K, L)), np.zeros((K, L)), np.full((K, L), 7.5),
                 rng.uniform(-40, 40, (K, L))]
        grids[3][2] = grids[3][1]
        scheds = [ControlSchedule(a, T) for a, T in zip(grids, (0.3, 0.05, 0.3, 1.2))]
        rho0 = plus_state(1) if model.dim == 2 else ghz_state(2)
        v0 = vectorize(rho0)
        states, derivatives = dyn.evolve_vectorized(scheds, v0)
        rho, drho = drho_domega(dyn, scheds, rho0)
        assert states.shape == (4, model.dim ** 2) and rho.shape == (4,) + rho0.shape
        for i, s in enumerate(scheds):
            one, done = dyn.evolve_vectorized(s, v0)
            assert states[i].tobytes() == one.tobytes()
            assert derivatives[i].tobytes() == done.tobytes()
            r, d = drho_domega(dyn, s, rho0)
            assert rho[i].tobytes() == r.tobytes() and drho[i].tobytes() == d.tobytes()
        # schedules of different K or L are not one stack
        for shape in ((K + 1, L), (K, L + 1)):
            bad = scheds + [ControlSchedule(np.zeros(shape), 0.3)]
            with pytest.raises(ValueError, match="one K x L shape"):
                dyn.evolve_vectorized(bad, v0)
            with pytest.raises(ValueError, match="one K x L shape"):
                drho_domega(dyn, bad, rho0)

    @pytest.mark.parametrize("name", ["parallel-dephasing-1q", "parallel-dephasing-2q",
                                      "ancilla"])
    def test_state_is_the_qfi_path_state(self, name):
        # evolve and the QFI take one path: evolve's state is the state half
        # of drho_domega's, bit for bit
        from lindmet.metrology import drho_domega

        model = (ancilla_extend(model_with("amplitude-damping")) if name == "ancilla"
                 else model_with(name))
        dyn = SlicedDynamics(model)
        amps = np.random.default_rng(len(name)).uniform(-40, 40, (6, model.n_controls))
        amps[3] = amps[2]
        s = ControlSchedule(amps, 0.3)
        rho0 = plus_state(1) if model.dim == 2 else ghz_state(2)
        assert dyn.evolve(s, rho0).tobytes() == drho_domega(dyn, s, rho0)[0].tobytes()

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

    def test_stack_reports_its_first_failing_state(self):
        good, negative, bad_trace = plus_state(1), np.diag([1.5, -0.5]), np.eye(2)
        nan = np.full((2, 2), np.nan)
        stack = np.stack([good, negative, bad_trace, nan])
        assert evolved_state_faults(stack) == [
            None, "propagated state has negative eigenvalue -5.000e-01",
            "propagated state trace deviates from 1 by 1.000e+00",
            "propagated state trace deviates from 1 by nan"]
        with pytest.raises(PropagationError, match="negative"):
            check_evolved_state(stack)
        check_evolved_state(np.stack([good, good]))


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
    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(7)
        model = model_with(gamma=10.0)
        dyn = SlicedDynamics(model)
        for _ in range(10):
            u = rng.uniform(-40, 40, 2)
            L = dyn.constant_generator() + u[0] * dyn.control_supers[0] \
                + u[1] * dyn.control_supers[1]
            dt = float(rng.uniform(0.001, 0.3))
            ours = _kern.expm(L * dt)
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


# the kernel's exponential, which a test may replace on the module by a spy
KERNEL_EXPM_STACK = _kern.expm_stack


def one_slice_expm(a):
    """``_kern.expm_stack`` on a stack of one slice."""
    return KERNEL_EXPM_STACK(a[None])[0]


def per_slice_expm_stack(A):
    """``_kern.expm_stack`` called once per slice of a stack."""
    return np.stack([one_slice_expm(a) for a in A]) if len(A) else KERNEL_EXPM_STACK(A)


# the kernel's exponential against scipy.linalg.expm, relative to the largest
# entry of scipy's result: both are accurate to about 1e-15 on these
# moderate generators (tests/test_expm_accuracy.py holds an mpmath oracle)
SCIPY_RTOL = 1e-12


def close_to_scipy(got, ref):
    return np.max(np.abs(got - ref)) <= SCIPY_RTOL * np.max(np.abs(ref))


def per_run_reference(L0, ctrls, amps, dt, v0, expm=one_slice_expm):
    """One ``expm`` call per run of equal consecutive rows (0.0 and -0.0
    equal), each generator built as L0 + u_1 C_1 + u_2 C_2 + ... in field
    order, skipping zero amplitudes, and scaled by the run's duration, its
    length times dt. The default ``expm`` is the kernel's on one slice; with
    ``scipy.linalg.expm`` the loop shares no code with the kernel."""
    v = np.array(v0)
    k = 0
    while k < len(amps):
        n = 1
        while k + n < len(amps) and np.array_equal(amps[k + n], amps[k]):
            n += 1
        A = L0.copy()
        for l in range(amps.shape[1]):
            if amps[k, l] != 0.0:
                A += amps[k, l] * ctrls[l]
        v = expm(A * (dt * n)) @ v
        k += n
    return v


def matches_per_run_references(got, L0, ctrls, amps, dt, v0):
    """Bit for bit the loop of the kernel's one-slice exponentials, and
    within SCIPY_RTOL of the loop of ``scipy.linalg.expm``."""
    return (bitwise_equal(got, per_run_reference(L0, ctrls, amps, dt, v0))
            and close_to_scipy(got, per_run_reference(L0, ctrls, amps, dt, v0,
                                                      scipy.linalg.expm)))


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def equal_but_nan(a, b):
    """NaN in the same real and imaginary parts of a and b, bitwise equal in
    all the others (infinities included)."""
    a, b = a.view(np.float64), b.view(np.float64)
    nan = np.isnan(b)
    return (a.shape == b.shape and np.array_equal(np.isnan(a), nan)
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def refuse_scipy_expm(monkeypatch):
    """Make every later ``scipy.linalg.expm`` call fail."""
    def refuse(a):
        raise AssertionError("scipy.linalg.expm was called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)


def spy_stack_sizes(monkeypatch):
    """The number of generators each later ``_kern.expm_stack`` call receives."""
    sizes = []
    real = _kern.expm_stack

    def spy(A):
        sizes.append(len(A))
        return real(A)

    monkeypatch.setattr(_kern, "expm_stack", spy)
    return sizes


def runs_of(grids):
    """The runs of equal consecutive rows (0.0 and -0.0 equal) in a stack of
    (K, L) grids, summed over the grids: the kernel takes one exponential per
    active site for each."""
    return sum(1 + int(np.count_nonzero((g[1:] != g[:-1]).any(axis=1))) for g in grids)


# (amplitude rows by letter, number of runs); see _pattern_problem
RUN_PATTERNS = [("A", 1), ("AAAAAAA", 1), ("AABBA", 3), ("ABABABA", 7), ("Zz", 1),
                ("zZZzA", 2)]


class TestPythonKernel:
    """The kernel against a loop of one exponential per run of equal rows: bit
    for bit with the kernel's own on one slice, and within SCIPY_RTOL with
    ``scipy.linalg.expm``."""

    def _problem(self, m, K, L, seed):
        rng = np.random.default_rng(seed)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return cplx(m, m), cplx(L, m, m), rng.uniform(-3, 3, (K, L)), cplx(m)

    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("K, L", [(1, 0), (1, 2), (7, 2), (20, 4)])
    def test_matches_per_slice_expm(self, m, K, L):
        L0, ctrls, amps, v0 = self._problem(m, K, L, seed=m * 100 + K * 10 + L)
        got = _kern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert matches_per_run_references(got, L0, ctrls, amps, 0.05, v0)

    @pytest.mark.parametrize("m", [4, 16])
    def test_signed_zero_amplitudes_skipped(self, m, monkeypatch):
        L0, ctrls, amps, v0 = self._problem(m, 6, 3, seed=m)
        L0[0, 0] = complex(-0.0, -0.0)
        amps[0] = 0.0
        amps[1] = -0.0
        amps[2, 1] = -0.0
        amps[3, 0] = amps[3, 2] = 0.0
        got = _kern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert matches_per_run_references(got, L0, ctrls, amps, 0.05, v0)
        # an all-zero slice evolves under L0 alone: its generator is L0 dt bit
        # for bit, signed zeros included
        generators = []
        real = _kern.expm_stack
        monkeypatch.setattr(_kern, "expm_stack", lambda A: generators.append(A.copy()) or real(A))
        first = _kern.propagate_schedule(L0, ctrls, amps[:1], 0.05, v0)
        assert bitwise_equal(first, one_slice_expm(L0 * 0.05) @ v0)
        assert close_to_scipy(first, scipy.linalg.expm(L0 * 0.05) @ v0)
        assert bitwise_equal(generators[0][0], L0 * 0.05)

    @pytest.mark.parametrize("m", [4, 16])
    def test_runs_of_equal_rows(self, m, monkeypatch):
        L0, ctrls, amps, v0 = self._problem(m, 9, 2, seed=m + 1)
        amps[1:4] = amps[0]
        amps[5:9] = amps[4]
        sizes = spy_stack_sizes(monkeypatch)
        got = _kern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert sizes == [2]
        assert matches_per_run_references(got, L0, ctrls, amps, 0.05, v0)

    def _pattern_problem(self, m, pattern):
        # rows by letter: A and B are distinct random rows, Z is [0.0, x] and z is
        # [-0.0, x], which compares equal to Z; the masked add skips both zeros
        L0, ctrls, amps, v0 = self._problem(m, 2, 2, seed=m + 2)
        x = amps[0, 1]
        rows = {"A": amps[0], "B": amps[1], "Z": [0.0, x], "z": [-0.0, x]}
        return L0, ctrls, np.array([rows[c] for c in pattern]), v0

    @pytest.mark.parametrize("pattern, runs", RUN_PATTERNS)
    @pytest.mark.parametrize("m", [4, 16])
    def test_one_exponential_per_run(self, m, pattern, runs, monkeypatch):
        L0, ctrls, amps, v0 = self._pattern_problem(m, pattern)
        sizes = spy_stack_sizes(monkeypatch)
        got = _kern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert sizes == [runs]
        assert matches_per_run_references(got, L0, ctrls, amps, 0.05, v0)

    @pytest.mark.parametrize("pattern, runs", RUN_PATTERNS)
    @pytest.mark.parametrize("m", [4, 16])
    def test_stack_of_drifts_is_separate_calls(self, m, pattern, runs, monkeypatch):
        # the grid at W slice lengths, as a schedule at several encoding
        # times is, W copies of it: row w is bit for bit the call with
        # length w, and every copy takes one exponential per run
        L0, ctrls, amps, v0 = self._pattern_problem(m, pattern)
        K = len(amps)
        assert runs_of([amps]) == runs
        dts = np.array([0.05, 0.013, 0.3])
        one_by_one = [_kern.propagate_schedule(L0, ctrls, amps, dt, v0) for dt in dts]
        sizes = spy_stack_sizes(monkeypatch)
        got = _kern.propagate_schedule(L0, ctrls, np.stack([amps] * 3), dts, v0)
        assert sizes == [3 * runs]
        assert bitwise_equal(got, np.stack(one_by_one))
        # a stack of one is the call with its length, with a leading axis
        assert bitwise_equal(_kern.propagate_schedule(L0, ctrls, amps[None], dts[:1], v0),
                             one_by_one[0][None])
        # a stack of N grids with one slice length per grid: row i is bit for
        # bit the call with grid i and its length; the grids have other run
        # counts, grid 3 repeats grid 0 at its length and grid 6 is grid 0 at
        # another
        grids = np.stack([amps, amps[::-1], np.zeros_like(amps), amps, np.tile(amps[:1], (K, 1)),
                          np.where(np.arange(K)[:, None] % 2, amps[::-1], -amps), amps])
        lengths = np.array([0.05, 0.013, 0.3, 0.05, 0.013, 0.3, 0.3])
        one_by_one = [_kern.propagate_schedule(L0, ctrls, a, dt, v0)
                      for a, dt in zip(grids, lengths)]
        sizes.clear()
        got = _kern.propagate_schedule(L0, ctrls, grids, lengths, v0)
        assert sizes == [runs_of(grids)]
        assert bitwise_equal(got, np.array(one_by_one))
        # or one length, given per grid, for every grid
        assert bitwise_equal(_kern.propagate_schedule(L0, ctrls, grids, np.full(7, 0.05), v0),
                             np.stack([_kern.propagate_schedule(L0, ctrls, a, 0.05, v0)
                                       for a in grids]))

    @pytest.mark.parametrize("m", [4, 16])
    def test_no_controls_is_one_run(self, m, monkeypatch):
        L0, ctrls, amps, v0 = self._problem(m, 7, 0, seed=m + 3)
        sizes = spy_stack_sizes(monkeypatch)
        got = _kern.propagate_schedule(L0, ctrls, amps, 0.05, v0)
        assert sizes == [1]
        assert matches_per_run_references(got, L0, ctrls, amps, 0.05, v0)

    @pytest.mark.parametrize("T", [0.01, 0.3, 10.0])
    @pytest.mark.parametrize("amplitudes", ["zero", "constant", "random"])
    @pytest.mark.parametrize("model", [*SCENARIOS, "ancilla-extend"])
    def test_physical_generators(self, model, amplitudes, T):
        # zero amplitudes leave diagonal or triangular generators, which
        # scipy.linalg.expm takes its own way; the other two give generic ones
        if model == "ancilla-extend":
            dyn = SlicedDynamics(ancilla_extend(model_with()))
        else:
            dyn = dynamics(model)
        K, L = 20, dyn.model.n_controls
        amps = {"zero": np.zeros((K, L)), "constant": np.full((K, L), -OMEGA0),
                "random": np.random.default_rng(L).uniform(-40, 40, (K, L))}[amplitudes]
        v0 = vectorize(np.eye(dyn.dim, dtype=complex) / dyn.dim + 0.1)
        L0 = dyn.constant_generator()
        got = _kern.propagate_schedule(L0, dyn.control_supers, amps, T / K, v0)
        assert matches_per_run_references(got, L0, dyn.control_supers, amps, T / K, v0)

    def test_shape_errors(self):
        L0, ctrls, amps, v0 = self._problem(4, 3, 2, seed=9)
        grids = np.stack([amps] * 3)
        cases = [
            ("L0 must be square", (L0[:, :3], ctrls, amps, 0.05, v0)),
            ("field count", (L0, ctrls[:1], amps, 0.05, v0)),
            ("control generators must match", (L0, ctrls[:, :3, :3], amps, 0.05, v0)),
            ("state vector length", (L0, ctrls, amps, 0.05, np.zeros(5, dtype=complex))),
            # a drift is one square generator, checked the same way with a
            # stack of grids
            ("L0 must be square", (np.stack([L0] * 3), ctrls, amps, 0.05, v0)),
            ("L0 must be square", (L0[:, :3], ctrls, grids, np.full(3, 0.05), v0)),
            ("field count", (L0, ctrls[:1], grids, np.full(3, 0.05), v0)),
            ("control generators must match",
             (L0, ctrls[:, :3, :3], grids, np.full(3, 0.05), v0)),
            ("state vector length", (L0, ctrls, grids, np.full(3, 0.05),
                                     np.zeros((3, 4), dtype=complex))),
            # a stack of grids takes exactly one slice length per grid, and
            # one grid one length
            ("dt must be", (L0, ctrls, grids, np.full(2, 0.05), v0)),
            ("dt must be", (L0, ctrls, grids, np.full((3, 1), 0.05), v0)),
            ("dt must be", (L0, ctrls, grids, 0.05, v0)),
            ("dt must be", (L0, ctrls, amps, np.full((3, 1), 0.05), v0)),
            ("dt must be", (L0, ctrls, amps, np.full(3, 0.05), v0)),
            # a grid needs a slice, and a stack a grid
            ("amps must be", (L0, ctrls, amps[:0], 0.05, v0)),
            ("amps must be", (L0, ctrls, amps[None, :0], 0.05, v0)),
            ("amps must be", (L0, ctrls, amps[None][:0], 0.05, v0)),
        ]
        for message, args in cases:
            with pytest.raises(ValueError, match=message):
                _kern.propagate_schedule(*args)


def lindbladian_reference(model, amps, T, v0, omega0=None):
    """The full-register oracle: one scipy.linalg.expm per slice of the
    d^2 x d^2 ``liouville.lindbladian`` generator of the whole register."""
    omega0 = model.omega0 if omega0 is None else omega0
    v = np.array(v0, dtype=complex)
    for row in amps:
        H = omega0 * model.generator + sum(u * Hc for u, Hc in zip(row, model.control_hams))
        v = scipy.linalg.expm(lindbladian(H, model.channel) * (T / len(amps))) @ v
    return v


def lindbladian_derivative_reference(model, amps, T, v0):
    """The state and its exact derivative in omega0 from the full-register
    oracle: per slice, the exponential P of the d^2 x d^2
    ``liouville.lindbladian`` generator L times dt and its Frechet
    derivative dP in the direction dL/domega0 times dt, from
    ``scipy.linalg.expm_frechet``, chained as v <- P v, dv <- P dv + dP v."""
    dt = T / len(amps)
    dL = lindbladian(model.generator, NoiseChannel((), ()))
    v, dv = np.array(v0, dtype=complex), np.zeros(len(v0), dtype=complex)
    for row in amps:
        H = model.omega0 * model.generator + sum(u * Hc for u, Hc in zip(row, model.control_hams))
        P, dP = scipy.linalg.expm_frechet(lindbladian(H, model.channel) * dt, dL * dt)
        v, dv = P @ v, P @ dv + dP @ v
    return v, dv


def runs_schedule(rng, K, n_fields, site0_fields):
    """A random +-40 schedule with runs of equal rows: rows 3-6 equal on every
    field, row 10 equal to row 9 on site 0's fields only, row 15 equal to
    row 14 on the other fields only."""
    amps = rng.uniform(-40, 40, (K, n_fields))
    amps[4:7] = amps[3]
    amps[10, :site0_fields] = amps[9, :site0_fields]
    amps[15, site0_fields:] = amps[14, site0_fields:]
    return amps


# every two-site register a run builds, with its probe: GHZ, or the Bell pair
# for the ancilla scheme (both the state ghz_state(2))
TWO_SITE_MODELS = ["parallel-dephasing-2q",
                   *(f"ancilla-{name}" for name in SCENARIOS if name != "parallel-dephasing-2q")]


def two_site_model(name):
    if name.startswith("ancilla-"):
        return ancilla_extend(model_with(name[len("ancilla-"):]))
    return model_with(name)


class TestSiteFactorisation:
    """Two-site registers propagate one 4x4 site at a time; the full
    register's per-slice exponentials are the oracle."""

    @pytest.mark.parametrize("T", [0.3, 3.0])
    @pytest.mark.parametrize("name", TWO_SITE_MODELS)
    def test_states_match_the_full_lindbladian(self, name, T):
        model = two_site_model(name)
        dyn = SlicedDynamics(model)
        amps = runs_schedule(np.random.default_rng(len(name)), 20, model.n_controls,
                             len(model.sites[0].control_hams))
        v0 = vectorize(ghz_state(2))
        for om in OMEGA0 + np.array([0.0, 1e-3, -1e-3]):
            v, _ = dyn.evolve_vectorized(ControlSchedule(amps, T), v0, om)
            assert np.max(np.abs(v - lindbladian_reference(model, amps, T, v0, om))) <= 1e-12

    @pytest.mark.parametrize("name", TWO_SITE_MODELS)
    def test_qfi_matches_the_full_lindbladian(self, name):
        from lindmet.metrology import qfi_eigen
        from lindmet.schemes import _schedule_qfi

        model = two_site_model(name)
        T = 0.3
        amps = runs_schedule(np.random.default_rng(len(name) + 1), 20, model.n_controls,
                             len(model.sites[0].control_hams))
        rho0 = ghz_state(2)
        rho, drho = (unvectorize(v) for v in
                     lindbladian_derivative_reference(model, amps, T, vectorize(rho0)))
        ref = qfi_eigen(rho, drho)
        got, = _schedule_qfi(SlicedDynamics(model), [ControlSchedule(amps, T)], rho0)
        # an exact oracle: the two differ by roundoff only, up to 3e-15 relative
        # (measured)
        assert ref > 0 and abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("name", TWO_SITE_MODELS)
    def test_runs_exponentiate_only_4x4_slices(self, name, monkeypatch):
        from lindmet import schemes
        from lindmet.optimizer import OptimizerOptions

        shapes = []
        real = _kern.expm_stack

        def spy(A):
            shapes.append(A.shape[1:])
            return real(A)

        monkeypatch.setattr(_kern, "expm_stack", spy)
        if name.startswith("ancilla-"):
            cfg = schemes.SchemeConfig("ancilla", name[len("ancilla-"):], (0.1, 0.2), K=4)
        else:
            cfg = schemes.SchemeConfig("control_enhanced", name, (0.1, 0.2), K=4,
                                       optimizer=OptimizerOptions(restarts=2, max_evals=30))
        schemes.run_scheme(cfg)
        # every QFI propagates one site's 8x8 Van Loan blocks, [[A, 0], [D, A]] of
        # its 4x4 generator, never a block of the whole register
        assert shapes and set(shapes) == {(8, 8)}


class TestTwoSiteKernel:
    """``propagate_schedule`` on a register of two sites against per-slice
    exponentials of the Kronecker sum of their generators."""

    def _sites(self, seed, K=7, fields=(2, 1)):
        rng = np.random.default_rng(seed)
        cplx = lambda *shape: 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        drifts = tuple(cplx(4, 4) for _ in fields)
        ctrls = tuple(cplx(n, 4, 4) for n in fields)
        amps = tuple(rng.uniform(-3, 3, (K, n)) for n in fields)
        return drifts, ctrls, amps, cplx(16)

    @staticmethod
    def _reference(drifts, ctrls, amps, dt, v0):
        """Per-slice expm of L0 (x) I + I (x) L1 in site-product order, an idle
        site's generator zero."""
        v = np.array(v0)
        eye = np.eye(4)
        for k in range(len(amps[0])):
            gens = [np.zeros((4, 4)) if D is None
                    else D + np.tensordot(a[k], C, 1) if len(C) else D
                    for D, C, a in zip(drifts, ctrls, amps)]
            v = scipy.linalg.expm((np.kron(gens[0], eye) + np.kron(eye, gens[1])) * dt) @ v
        return v

    @staticmethod
    def _generators(drifts, grids):
        """The generators a stack of grids takes: one per active site for
        each run of equal consecutive rows of the active sites' fields, in
        every grid."""
        active = [g for D, g in zip(drifts, grids) if D is not None]
        return len(active) * runs_of(np.concatenate(active, axis=2))

    @pytest.mark.parametrize("idle", [(), (0,), (1,)])
    def test_matches_the_kronecker_sum(self, idle, monkeypatch):
        drifts, ctrls, amps, v0 = self._sites(seed=len(idle) + 3 * sum(idle))
        # rows 2-4 equal on site 0, rows 4-5 on site 1: 5 and 6 runs of each
        # site's own rows, and 7 of the register's, which every active site
        # takes; an idle site's rows do not count
        amps[0][3:5] = amps[0][2]
        amps[1][5] = amps[1][4]
        drifts = tuple(None if s in idle else D for s, D in enumerate(drifts))
        # the grid at three slice lengths, as three copies of it, each of
        # which takes its own generators
        dts = np.array([0.05, 0.02, 0.1])
        grids = tuple(np.stack([a] * 3) for a in amps)
        sizes = spy_stack_sizes(monkeypatch)
        got = _kern.propagate_schedule(drifts, ctrls, grids, dts, v0)
        runs = {(): 7, (0,): 6, (1,): 5}[idle]
        assert sizes == [3 * runs * (2 - len(idle))]
        assert sizes == [self._generators(drifts, grids)]
        for w, dt in enumerate(dts):
            ref = self._reference(drifts, ctrls, amps, dt, v0)
            assert np.max(np.abs(got[w] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("idle", [(), (0,), (1,)])
    def test_stack_of_grids_is_separate_calls(self, idle, monkeypatch):
        drifts, ctrls, amps, v0 = self._sites(seed=11 + len(idle) + 3 * sum(idle))
        drifts = tuple(None if s in idle else D for s, D in enumerate(drifts))
        # each site's grids: the random one, with runs, reversed, zero, and
        # the random one again at its slice length and at another, each of
        # which takes the random one's count of generators
        amps[0][3:5] = amps[0][2]
        amps[1][5] = amps[1][4]
        grids = tuple(np.stack([a, a[::-1], np.zeros_like(a), a, a]) for a in amps)
        lengths = np.array([0.05, 0.02, 0.1, 0.05, 0.1])
        sizes = spy_stack_sizes(monkeypatch)
        got = _kern.propagate_schedule(drifts, ctrls, grids, lengths, v0)
        assert got.shape == (5, 16)
        assert sizes == [self._generators(drifts, grids)]
        assert sizes == [self._generators(drifts, tuple(g[:3] for g in grids))
                         + 2 * self._generators(drifts, tuple(g[:1] for g in grids))]
        for i, dt in enumerate(lengths):
            one = _kern.propagate_schedule(drifts, ctrls, tuple(g[i] for g in grids), dt, v0)
            assert bitwise_equal(got[i], one)
        # one slice length, given per grid, for every grid
        got = _kern.propagate_schedule(drifts, ctrls, grids, np.full(5, 0.05), v0)
        for i in range(5):
            one = _kern.propagate_schedule(drifts, ctrls, tuple(g[i] for g in grids), 0.05, v0)
            assert bitwise_equal(got[i], one)

    def test_one_site_is_the_bare_call(self):
        drifts, ctrls, amps, v0 = self._sites(seed=5, fields=(2,))
        amps[0][3:5] = amps[0][2]
        v0 = v0[:4]
        dts = np.array([0.05, 0.02, 0.1])
        grids = tuple(np.stack([a] * 3) for a in amps)
        got = _kern.propagate_schedule(drifts, ctrls, grids, dts, v0)
        assert got.shape == (3, 4)
        assert bitwise_equal(got, _kern.propagate_schedule(drifts[0], ctrls[0], grids[0], dts, v0))
        # a grid at one slice length gives the state, and a stack of one a stack of one
        got = _kern.propagate_schedule(drifts, ctrls, amps, 0.02, v0)
        assert bitwise_equal(got, _kern.propagate_schedule(drifts[0], ctrls[0], amps[0],
                                                           0.02, v0))
        assert bitwise_equal(_kern.propagate_schedule(drifts, ctrls, tuple(a[None] for a in amps),
                                                      dts[1:2], v0),
                             got[None])

    def test_shape_errors(self):
        drifts, ctrls, amps, v0 = self._sites(seed=9)
        grids = tuple(np.stack([a] * 2) for a in amps)
        cases = [
            ("one site or two", (drifts + drifts[:1], ctrls + ctrls[:1], amps + amps[:1], v0)),
            ("one site or two", (drifts, ctrls[:1], amps, v0)),
            ("a site that is not idle", ((None, None), ctrls, amps, v0)),
            ("drifts must have one shape",
             ((drifts[0], np.zeros((8, 8))), (ctrls[0], np.zeros((0, 8, 8))),
              (amps[0], amps[1][:, :0]), v0)),
            ("one row per slice", (drifts, ctrls, (amps[0], amps[1][:-1]), v0)),
            ("state vector length", (drifts, ctrls, amps, v0[:4])),
            ("field count", (drifts, ctrls, (amps[0], amps[0]), v0)),
            ("dt must be", (drifts, ctrls, amps, v0, np.full((2, 1), 0.05))),
            ("dt must be", (drifts, ctrls, grids, v0, np.full(3, 0.05))),
            # stacks of grids: as many on each site, and each a grid
            ("as many grids", (drifts, ctrls, (amps[0][None], amps[1]), v0)),
            ("as many grids", (drifts, ctrls, (amps[0][None], np.stack([amps[1]] * 2)), v0)),
            ("amps must be", (drifts, ctrls, (amps[0][None, None], amps[1][None, None]), v0)),
        ]
        for message, args in cases:
            D, C, A, v = args[:4]
            dt = args[4] if len(args) > 4 else 0.05
            with pytest.raises(ValueError, match=message):
                _kern.propagate_schedule(D, C, A, dt, v)


def squarings(a):
    """The number of squarings the kernel takes for one matrix."""
    return max(0, int(np.frexp(np.linalg.norm(a, 1) / _kern._THETA_18)[1]))


def near_scipy(got, A):
    """Slice for slice within 100 eps max(1, ||A[k]||_1) of ``scipy.linalg.expm``,
    relative to the largest entry of scipy's result: the two agree to
    roughly the 1-norm times the rounding unit, on these stacks at most 68
    times it, on a triangular 16x16 slice of 1-norm 1.1e4."""
    for a, g in zip(A, got):
        ref = scipy.linalg.expm(a)
        bound = 100 * np.finfo(np.float64).eps * max(1.0, np.linalg.norm(a, 1))
        if not np.max(np.abs(g - ref)) <= bound * np.max(np.abs(ref)):
            return False
    return True


class TestExpmStack:
    """The batched exponential: slice for slice bit for bit its one-slice
    calls, and close to scipy.linalg.expm on diagonal, triangular and generic
    slices alike."""

    def _mixed_stack(self, m, seed):
        # generic, diagonal, upper- and lower-triangular slices, at scales that
        # need no squaring and several
        rng = np.random.default_rng(seed)
        slices = []
        for scale in (1e-3, 0.3, 4.0, 60.0):
            a = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            slices += [a, np.diag(np.diag(a)), np.triu(a), np.tril(a), np.triu(a, -1)]
        return np.stack(slices)

    @pytest.mark.parametrize("m", [4, 16])
    def test_mixed_stack(self, m):
        A = self._mixed_stack(m, seed=m)
        assert {squarings(a) > 0 for a in A[::5]} == {False, True}
        got = _kern.expm_stack(A)
        assert bitwise_equal(got, per_slice_expm_stack(A))
        assert near_scipy(got, A)

    def test_long_stack_in_one_fixed_work_array(self):
        # more slices than a 64-slice piece, their squaring counts shuffled
        # among the pieces: slice for slice the one-slice calls, in working
        # memory that does not grow with the stack beyond its input and output
        A = np.concatenate([self._mixed_stack(4, seed=s) for s in range(12)])
        A = A[np.random.default_rng(6).permutation(len(A))]
        assert len({squarings(a) for a in A[:64]}) > 3
        assert bitwise_equal(_kern.expm_stack(A), per_slice_expm_stack(A))
        long = np.tile(A, (10, 1, 1))
        tracemalloc.start()
        try:
            _kern.expm_stack(long)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, one gathered copy of the input, and about 200 kB a piece
        assert peak <= 2 * long.nbytes + 400_000

    def test_nan_slice(self):
        A = self._mixed_stack(4, seed=1)
        # the first upper and lower triangular slices that need squaring
        up = next(k for k in range(2, len(A), 5) if squarings(A[k]) > 0)
        lo = next(k for k in range(3, len(A), 5) if squarings(A[k]) > 0)
        bad = [0, 7, 1, 2, up, lo]
        A[0, 1, 2] = np.nan
        A[7, 3, 0] = np.nan  # an upper-triangular slice made generic by a NaN
        A[1, 2, 2] = np.nan  # a diagonal slice
        A[2, 0, 3] = np.inf  # an upper triangular one, off its diagonal
        A[up, 1, 1] = np.nan  # triangular ones that need squaring
        A[lo, 3, 0] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kern.expm_stack(A)
        # a slice with a NaN or infinite entry is NaN, and the others as
        # they are without it
        good = np.setdiff1d(np.arange(len(A)), bad)
        assert np.isnan(got[bad]).all()
        assert bitwise_equal(got[good], _kern.expm_stack(A[good]))
        assert equal_but_nan(got, per_slice_expm_stack(A))

    def _triangular_stack(self, m, seed):
        # upper and lower triangular slices at scales from no squaring to
        # several, each also with a diagonal of repeated entries, shuffled so
        # that the groups of one orientation and squaring count interleave
        rng = np.random.default_rng(seed)
        slices = []
        for scale in np.geomspace(1e-3, 100.0, 25):
            a = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            repeated = a.copy()
            repeated[np.diag_indices(m)] = np.repeat(np.diag(a)[::2], 2)[:m]
            repeated[-1, -1] = repeated[0, 0]
            for b in (a, repeated):
                slices += [np.triu(b), np.tril(b)]
        return np.stack(slices)[rng.permutation(len(slices))]

    @pytest.mark.parametrize("m", [4, 16])
    def test_triangular_slices(self, m):
        A = self._triangular_stack(m, seed=m + 10)
        upper = [not np.tril(a, -1).any() for a in A]
        assert {0, 1, 2, 3} <= {squarings(a) for a, up in zip(A, upper) if up}
        assert {0, 1, 2, 3} <= {squarings(a) for a, up in zip(A, upper) if not up}
        got = _kern.expm_stack(A)
        assert bitwise_equal(got, per_slice_expm_stack(A))
        assert near_scipy(got, A)

    @pytest.mark.parametrize("m", [4, 16])
    def test_overflowing_slices(self, m):
        # entries of a few thousand overflow exp in every slice class: a slice
        # overflows where scipy's does, without a warning, and the rest agree
        A = np.concatenate([self._mixed_stack(m, seed=m + 20), self._triangular_stack(m, m)])
        A *= 50.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kern.expm_stack(A)
        with np.errstate(all="ignore"):
            ref = np.stack([scipy.linalg.expm(a) for a in A])
        finite = np.isfinite(ref).all(axis=(1, 2))
        assert finite.any() and not finite.all()
        assert np.array_equal(np.isfinite(got).all(axis=(1, 2)), finite)
        assert equal_but_nan(got, per_slice_expm_stack(A))
        assert near_scipy(got[finite], A[finite])

    @pytest.mark.parametrize("m", [4, 16])
    def test_never_calls_scipy_expm(self, m, monkeypatch):
        # on generic slices, the only kind a run exponentiates, complex or
        # real: the kernel is numpy only
        A = self._mixed_stack(m, seed=m + 30)[::5]
        for stack in (A, A.real.copy()):
            ref = per_slice_expm_stack(stack)
            with monkeypatch.context() as patch:
                refuse_scipy_expm(patch)
                assert bitwise_equal(_kern.expm_stack(stack), ref)
        assert not hasattr(_kern, "scipy")

    def test_single_matrix_entry(self):
        for A in self._mixed_stack(16, seed=2):
            assert bitwise_equal(_kern.expm(A), one_slice_expm(A))
            assert near_scipy(_kern.expm(A)[None], A[None])
        assert _kern.expm(np.eye(3)).dtype == np.complex128
        with pytest.raises(ValueError, match="square"):
            _kern.expm(np.zeros((2, 3)))

    def test_squaring_cap_on_both_sides(self):
        # a slice takes at most _MAX_SQUARINGS = 33 squarings: a 1-norm below
        # 1.09 * 2**33 is exponentiated, and a noiseless rotation there keeps
        # to 1e-6; at the cap and past it, or not finite, it is NaN. Each
        # side of the cap is bit for bit the slice on its own
        cap = _kern._THETA_18 * 2.0 ** _kern._MAX_SQUARINGS
        rotation = lambda w: np.pad(np.array([[0.0, -w], [w, 0.0]]), ((2, 0), (2, 0)))
        decaying = lambda w: np.diag([-w, -w / 3, -w / 7, 0.0])
        below, above = cap * (1 - 1e-15), cap
        A = np.stack([rotation(below), decaying(below), rotation(above), decaying(above),
                      decaying(1e300), decaying(np.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kern.expm_stack(A)
            assert bitwise_equal(got, per_slice_expm_stack(A))
        assert squarings(A[0]) == squarings(A[1]) == 33 and squarings(A[2]) == 34
        turn = np.array([[np.cos(below), -np.sin(below)], [np.sin(below), np.cos(below)]])
        assert np.max(np.abs(got[0, 2:, 2:] - turn)) <= 1e-6
        assert np.array_equal(got[0, :2], np.eye(4)[:2])
        # the decaying slice's exponential is the projector on its zero
        # eigenvalue
        assert np.array_equal(got[1], np.diag([0.0, 0.0, 0.0, 1.0]))
        assert np.isnan(got[2:]).all()
