import warnings

import numpy as np
import pytest

from lindmet.channels import (SIGMA_Z, EncodingModel, Site, build_scenario,
                              parallel_dephasing)
from lindmet.liouville import vectorize
from lindmet.metrology import (MetrologyError, drho_domega, qfi_eigen,
                               qfi_fidelity, sensitivity, uhlmann_fidelity)
from lindmet.propagation import ControlSchedule, PropagationError, SlicedDynamics
from lindmet.schemes import ghz_state, plus_state

from bloch_oracle import qfi as bloch_qfi

OMEGA0 = 2 * np.pi
KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def bloch_of(rho):
    return np.array([2 * rho[1, 0].real, 2 * rho[1, 0].imag,
                     (rho[0, 0] - rho[1, 1]).real])


def fidelity_delta(omega0: float, total_time: float) -> float:
    """Step for the fidelity-based estimator.

    Large enough that the 1-F signal clears the matrix-square-root noise floor
    (worst for rank-deficient states such as dephased GHZ, ~1e-8), small
    enough that the accumulated phase delta*T keeps the quadratic truncation
    well under a percent even when F_Q approaches its pure-state ceiling."""
    return min(5e-2 * max(abs(omega0), 1.0), 0.15 / total_time)


def noiseless_model(omega0=OMEGA0):
    return build_scenario("parallel-dephasing-1q", omega0, {"gamma": 0.0})


class TestDrho:
    def test_parameter_independent_dynamics(self):
        model = EncodingModel(OMEGA0, [Site(np.zeros((2, 2)), (SIGMA_Z / 2,),
                                            parallel_dephasing(3.0))])
        s = ControlSchedule.zero(2, 1, 0.3)
        _, d = drho_domega(SlicedDynamics(model), s, plus_state(1))
        assert np.array_equal(d, np.zeros((2, 2)))

    def test_norm_grows_linearly_noiseless(self):
        dyn = SlicedDynamics(noiseless_model())
        norms = []
        for T in (0.1, 0.2):
            s = ControlSchedule.zero(1, 2, T)
            norms.append(np.linalg.norm(drho_domega(dyn, s, plus_state(1))[1]))
        assert abs(norms[1] / norms[0] - 2.0) <= 1e-6

    def test_always_traceless_hermitian(self):
        rng = np.random.default_rng(0)
        model = build_scenario("parallel-dephasing-1q", OMEGA0)
        dyn = SlicedDynamics(model)
        for _ in range(10):
            s = ControlSchedule(rng.uniform(-30, 30, (4, 2)), float(rng.uniform(0.05, 0.5)))
            _, d = drho_domega(dyn, s, plus_state(1))
            assert abs(np.trace(d)) <= 1e-9
            assert np.max(np.abs(d - d.conj().T)) <= 1e-9


class TestStackedDrho:
    """A sequence of schedules on one amplitude grid, several encoding times."""

    def _schedules(self, n_fields, times):
        amps = np.random.default_rng(3).uniform(-30, 30, (4, n_fields))
        return [ControlSchedule(amps, T) for T in times]

    @pytest.mark.parametrize("scenario, probe", [("parallel-dephasing-1q", plus_state(1)),
                                                 ("parallel-dephasing-2q", ghz_state(2))])
    def test_each_entry_is_its_own_call(self, scenario, probe):
        dyn = SlicedDynamics(build_scenario(scenario, OMEGA0))
        scheds = self._schedules(dyn.model.n_controls, (0.05, 0.2, 0.45))
        rho, drho = drho_domega(dyn, scheds, probe)
        assert rho.shape == drho.shape == (3,) + probe.shape
        qfis = qfi_eigen(rho, drho)
        for k, s in enumerate(scheds):
            r, d = drho_domega(dyn, s, probe)
            assert r.tobytes() == rho[k].tobytes() and d.tobytes() == drho[k].tobytes()
            q = qfi_eigen(r, d)
            assert type(q) is float and q == qfis[k]

    def test_first_failing_schedule_in_order_is_reported(self):
        # at T = 1e308 s a slice's generator times its length overflows, so that
        # state is NaN, without a warning; T = 0.1 s passes its checks
        dyn = SlicedDynamics(build_scenario("parallel-dephasing-1q", OMEGA0))
        scheds = self._schedules(2, (0.1, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError,
                               match=r"^at T=1e\+308 s: propagated state trace deviates from 1 by nan"):
                drho_domega(dyn, scheds, plus_state(1))
            # with a probe of trace 2 every state fails its checks, and the earlier
            # T reports that
            with pytest.raises(PropagationError, match=r"^at T=0\.1 s: propagated state trace"):
                drho_domega(dyn, scheds, np.eye(2))
            # the propagation itself warns nothing either: the state that
            # overflows is NaN, the other is propagated
            v, dv = dyn.evolve_vectorized(scheds, vectorize(np.eye(2, dtype=complex)))
            assert np.isfinite(v[0]).all() and np.isfinite(dv[0]).all()
            assert np.isnan(v[1]).all() and np.isnan(dv[1]).all()


class TestQfiEigen:
    def test_zero_derivative(self):
        assert qfi_eigen(plus_state(1), np.zeros((2, 2))) == 0.0

    def test_pure_noiseless_t_squared(self):
        model = noiseless_model()
        dyn = SlicedDynamics(model)
        for T in (0.3, 1.0, 2.0):
            s = ControlSchedule.zero(1, 2, T)
            rho, d = drho_domega(dyn, s, plus_state(1))
            got = qfi_eigen(rho, d)
            # pure-state oracle: 4 Var(G) T^2 with G = sigma_z/2 and probe |+>
            var = 0.25
            assert abs(got - 4 * var * T**2) <= 1e-6 * 4 * var * T**2

    def test_dephased_matches_bloch_oracle(self):
        gamma, T = 10.0, 0.2
        model = build_scenario("parallel-dephasing-1q", OMEGA0)
        dyn = SlicedDynamics(model)
        s = ControlSchedule.zero(1, 2, T)
        rho, d = drho_domega(dyn, s, plus_state(1))
        got = qfi_eigen(rho, d)
        oracle = bloch_qfi(bloch_of(rho), bloch_of(d))
        analytic = T**2 * np.exp(-2 * gamma * T)
        assert abs(got - oracle) <= 1e-9 * max(oracle, 1.0)
        assert abs(got - analytic) <= 1e-6 * analytic

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        model = build_scenario("amplitude-damping", OMEGA0)
        dyn = SlicedDynamics(model)
        s = ControlSchedule.zero(1, 2, 2.0)
        rho, d = drho_domega(dyn, s, plus_state(1))
        base = qfi_eigen(rho, d)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Q, _ = np.linalg.qr(A)
        rotated = qfi_eigen(Q @ rho @ Q.conj().T, Q @ d @ Q.conj().T)
        assert abs(rotated - base) <= 1e-9 * base

    def test_non_finite_state_scores_zero(self):
        # the unchecked search objective relies on this to steer away from
        # amplitudes whose propagation overflows
        nan_state = np.full((2, 2), np.nan, dtype=complex)
        assert qfi_eigen(nan_state, nan_state) == 0.0

    def test_overflowing_term_is_inf_without_a_warning(self):
        huge = np.array([[0.0, 1e300], [1e300, 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qfi_eigen(plus_state(1), huge) == np.inf


class TestUhlmannFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = A @ A.conj().T
        rho /= np.trace(rho)
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) <= 1e-10

    def test_orthogonal_pure_states(self):
        assert uhlmann_fidelity(KET0, KET1) <= 1e-12

    def test_pure_vs_maximally_mixed(self):
        got = uhlmann_fidelity(KET0, np.eye(2) / 2)
        assert abs(got - 1 / np.sqrt(2)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = A @ A.conj().T
            rho /= np.trace(rho)
            sig = B @ B.conj().T
            sig /= np.trace(sig)
            assert abs(uhlmann_fidelity(rho, sig) - uhlmann_fidelity(sig, rho)) <= 1e-9

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = A @ A.conj().T
        rho /= np.trace(rho)
        assert uhlmann_fidelity(rho, rho.copy()) >= 1.0 - 1e-12
        # distinct states can't reach fidelity 1
        sig = 0.9 * rho + 0.1 * np.eye(2) / 2
        trace_dist = 0.5 * np.abs(np.linalg.eigvalsh(rho - sig)).sum()
        if trace_dist > 1e-9:
            assert uhlmann_fidelity(rho, sig) < 1.0 - 1e-12

    def test_rejects_invalid_states(self):
        with pytest.raises(MetrologyError):
            uhlmann_fidelity(np.eye(2), np.eye(2) / 2)
        nan_state = np.full((2, 2), np.nan, dtype=complex)
        for rho, sigma in ((nan_state, KET0), (KET0, nan_state)):
            with pytest.raises(MetrologyError):
                uhlmann_fidelity(rho, sigma)

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = int(rng.choice([2, 4]))
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = A @ A.conj().T
            rho /= np.trace(rho)
            sig = B @ B.conj().T
            sig /= np.trace(sig)
            f = uhlmann_fidelity(rho, sig)
            assert 0.0 <= f <= 1.0


    def test_roundoff_on_a_null_eigenvalue_is_ignored(self):
        # a rank-2 state and its copy with +1e-17 on a null eigenvalue, against
        # a full-rank state, a rank-2 one and itself: the square root of that
        # roundoff, 3e-9, once moved the fidelity by 1e-9
        rho = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
        perturbed = np.diag([0.7, 0.3, 1e-17, 0.0]).astype(complex)
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for B in (A, A[:, :2], np.eye(4)[:, :2]):
            sigma = B @ B.conj().T / np.trace(B @ B.conj().T)
            assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(perturbed, sigma)) <= 1e-15
            assert abs(uhlmann_fidelity(sigma, rho) - uhlmann_fidelity(sigma, perturbed)) <= 1e-15


class TestQfiFidelity:
    def test_identical_states(self):
        assert qfi_fidelity(plus_state(1), plus_state(1), 0.1) <= 1e-9

    def test_matches_eigen_on_pure_pair(self):
        model = noiseless_model()
        dyn = SlicedDynamics(model)
        T = 0.5
        s = ControlSchedule.zero(1, 2, T)
        rho = dyn.evolve(s, plus_state(1))
        delta = fidelity_delta(OMEGA0, T)
        rho_p = dyn.evolve(s, plus_state(1), OMEGA0 + delta)
        est = qfi_fidelity(rho, rho_p, delta)
        eig = qfi_eigen(*drho_domega(dyn, s, plus_state(1)))
        assert abs(est - eig) / eig <= 0.01

    def test_rejects_bad_delta(self):
        # unchecked, NaN would return NaN and inf a QFI of 0.0
        for bad in (0.0, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                qfi_fidelity(plus_state(1), plus_state(1), bad)


class TestSensitivity:
    def test_arithmetic_case(self):
        assert abs(sensitivity(4 * np.pi**2, 1.0, 1.0) - 1 / (2 * np.pi)) <= 1e-15

    def test_minimum_at_inverse_two_gamma(self):
        # analytic curve F = T^2 exp(-2 g T): dense-grid argmin of sqrt(T)/sqrt(F)
        gamma = 10.0
        ts = np.linspace(0.005, 0.5, 4000)
        sens = [sensitivity(t**2 * np.exp(-2 * gamma * t), t) for t in ts]
        assert abs(ts[np.argmin(sens)] - 1 / (2 * gamma)) <= 2e-4

    def test_scaling_law(self):
        a = sensitivity(1.0, 1.0)
        b = sensitivity(2.0, 1.0)
        assert abs(a / b - np.sqrt(2.0)) <= 1e-12

    def test_zero_information(self):
        assert sensitivity(0.0, 1.0) == float("inf")

    def test_rejects_an_infinite_qfi(self):
        # sqrt(T) / sqrt(inf) would report a sensitivity of 0
        with pytest.raises(MetrologyError, match=r"^at T=2 s: the QFI inf is not a finite"):
            sensitivity(np.inf, 2.0)

    def test_rejects_a_sensitivity_that_underflows(self):
        # gamma_c sqrt(F) overflows for a finite QFI: the quotient would be 0
        with pytest.raises(MetrologyError, match="is not a positive finite float"):
            sensitivity(1e18, 1.0, 1e300)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sensitivity(1.0, 0.0)
        with pytest.raises(ValueError):
            sensitivity(1.0, 1.0, 0.0)


class TestEstimatorAgreement:
    GRIDS = {
        "parallel-dephasing-1q": np.linspace(0.02, 0.5, 10),
        "parallel-dephasing-2q": np.linspace(0.01, 0.3, 10),
        "transverse-dephasing": np.linspace(2.0, 40.0, 10),
        "amplitude-damping": np.linspace(1.0, 20.0, 10),
    }

    @pytest.mark.parametrize("scenario", sorted(GRIDS))
    def test_two_percent_agreement(self, scenario):
        model = build_scenario(scenario, OMEGA0)
        dyn = SlicedDynamics(model)
        rho0 = plus_state(1) if model.dim == 2 else ghz_state(2)
        for T in self.GRIDS[scenario]:
            s = ControlSchedule.zero(1, model.n_controls, T)
            rho, d = drho_domega(dyn, s, rho0)
            eig = qfi_eigen(rho, d)
            delta = fidelity_delta(OMEGA0, T)
            fid = qfi_fidelity(rho, dyn.evolve(s, rho0, OMEGA0 + delta), delta)
            assert abs(fid - eig) / eig <= 0.02, (scenario, T)


class TestFiniteDifferenceConvergence:
    def test_observed_order(self):
        # central differences of evolve converge at second order, to the QFI
        # of drho_domega's exact derivative
        model = build_scenario("parallel-dephasing-1q", OMEGA0)
        dyn = SlicedDynamics(model)
        rho0 = plus_state(1)
        s = ControlSchedule(np.full((4, 2), 3.0), 0.15)
        ref = qfi_eigen(*drho_domega(dyn, s, rho0))
        rho = dyn.evolve(s, rho0)

        def qfi_at_step(d):
            drho = (dyn.evolve(s, rho0, OMEGA0 + d) - dyn.evolve(s, rho0, OMEGA0 - d)) / (2 * d)
            return qfi_eigen(rho, drho)

        deltas = np.array([0.8, 0.4, 0.2, 0.1])
        errs = [abs(qfi_at_step(d) - ref) for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert slope >= 1.8
