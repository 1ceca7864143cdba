import numpy as np
import pytest

from lindmet.optimizer import OptimizerOptions
from lindmet.propagation import ControlSchedule
from lindmet.schemes import (MetrologyResult, SchemeConfig, ghz_state,
                             haar_random_state, plus_state, resolve_probe,
                             run_control_enhanced, run_fixed_schedule,
                             run_scheme)

OMEGA0 = 2 * np.pi
SMALL_OPT = OptimizerOptions(restarts=3, max_evals=400, seed=11)


def config(scheme, scenario, grid, **kw):
    return SchemeConfig(scheme=scheme, scenario=scenario, time_grid=tuple(grid), **kw)


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            config("grape", "parallel-dephasing-1q", [0.1])
        with pytest.raises(ValueError, match="probe"):
            config("standard", "parallel-dephasing-1q", [0.1], probe="w_state")
        with pytest.raises(ValueError, match="increasing"):
            config("standard", "parallel-dephasing-1q", [0.2, 0.1])
        with pytest.raises(ValueError, match="positive"):
            config("standard", "parallel-dephasing-1q", [0.0, 0.1])

    @pytest.mark.parametrize("field, value", [
        ("omega0", float("inf")), ("omega0", float("nan")),
        ("time_grid", (0.1, float("nan"))), ("time_grid", (0.1, float("inf"))),
        ("u_max", 0.0), ("u_max", -5.0), ("u_max", float("nan")),
        ("gamma_c", 0.0), ("gamma_c", -1.0),
    ])
    def test_rejects_non_finite_and_non_positive(self, field, value):
        kw = {"time_grid": (0.1,), field: value}
        with pytest.raises(ValueError, match=field.replace("_grid", " grid")):
            SchemeConfig(scheme="standard", scenario="parallel-dephasing-1q", **kw)

    def test_rejects_scheme_scenario_pairs_that_cannot_run(self):
        with pytest.raises(ValueError, match="1-qubit"):
            config("ancilla", "parallel-dephasing-2q", [0.1])
        with pytest.raises(ValueError, match="transverse"):
            config("theoretical_optimal", "amplitude-damping", [0.1])
        config("ancilla", "amplitude-damping", [0.1])
        config("theoretical_optimal", "transverse-dephasing", [0.1])

    def test_u_max_default(self):
        c = config("standard", "parallel-dephasing-1q", [0.1])
        assert c.resolved_u_max == 20 * OMEGA0


class TestProbes:
    def test_plus(self):
        assert np.array_equal(plus_state(1), np.full((2, 2), 0.5))
        assert np.allclose(np.trace(plus_state(2)), 1.0)

    def test_ghz(self):
        g = ghz_state(2)
        for idx in ((0, 0), (3, 3), (0, 3), (3, 0)):
            assert abs(g[idx] - 0.5) <= 1e-15
        assert g[1, 1] == 0.0

    def test_haar_random_seeded(self):
        a = haar_random_state(4, np.random.default_rng(3))
        b = haar_random_state(4, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert abs(np.trace(a) - 1) <= 1e-12
        assert abs(np.trace(a @ a) - 1) <= 1e-12  # pure

    def test_default_resolution(self):
        c = config("standard", "parallel-dephasing-1q", [0.1])
        assert np.array_equal(resolve_probe(c, 2), plus_state(1))
        c = config("standard", "parallel-dephasing-2q", [0.1])
        assert np.array_equal(resolve_probe(c, 4), ghz_state(2))
        c = config("ancilla", "parallel-dephasing-1q", [0.1])
        assert np.array_equal(resolve_probe(c, 4), ghz_state(2))

    def test_random_seeded_deterministic(self):
        c = config("control_enhanced", "parallel-dephasing-1q", [0.1],
                   probe="random_seeded", optimizer=OptimizerOptions(seed=9))
        assert np.array_equal(resolve_probe(c, 2), resolve_probe(c, 2))


class TestStandard:
    def test_parallel_dephasing_analytic(self):
        gamma = 10.0
        grid = np.geomspace(0.01, 0.5, 12)
        res = run_scheme(config("standard", "parallel-dephasing-1q", grid))
        for r in res:
            oracle = r.T ** 2 * np.exp(-2 * gamma * r.T)
            assert abs(r.qfi - oracle) / oracle <= 1e-6
            assert abs(r.sensitivity - np.sqrt(r.T) / np.sqrt(r.qfi)) <= 1e-12
            assert r.evaluations == 0 and r.converged
            assert r.schedule.is_zero and r.schedule.total_time == r.T

    def test_parallel_dephasing_analytic_at_large_omega0_t(self):
        # omega0*T up to 3e6 rad: a derivative step that grows with omega0
        # but not capped by 1/T loses the QFI entirely here
        gamma = 10.0
        res = run_scheme(config("standard", "parallel-dephasing-1q", [0.05, 0.275, 0.5],
                                omega0=2e6 * np.pi))
        for r in res:
            oracle = r.T ** 2 * np.exp(-2 * gamma * r.T)
            assert abs(r.qfi - oracle) / oracle <= 1e-6

    def test_two_qubit_ghz_analytic(self):
        gamma = 10.0
        grid = np.linspace(0.02, 0.25, 8)
        res = run_scheme(config("standard", "parallel-dephasing-2q", grid))
        for r in res:
            oracle = 4 * r.T ** 2 * np.exp(-4 * gamma * r.T)
            assert abs(r.qfi - oracle) / oracle <= 1e-6

    def test_amplitude_damping_qfi_peak_near_two_over_gamma(self):
        grid = np.arange(0.25, 20.25, 0.25)
        res = run_scheme(config("standard", "amplitude-damping", grid))
        best = max(res, key=lambda r: r.qfi)
        assert abs(best.T - 10.0) <= 0.25 + 1e-9


class TestAncilla:
    def test_matches_standard_under_parallel_dephasing(self):
        grid = np.geomspace(0.02, 0.4, 8)
        std = run_scheme(config("standard", "parallel-dephasing-1q", grid))
        anc = run_scheme(config("ancilla", "parallel-dephasing-1q", grid))
        for s, a in zip(std, anc):
            assert abs(a.qfi - s.qfi) / s.qfi <= 1e-6

    def test_improves_amplitude_damping_before_peak(self):
        grid = [2.0, 5.0, 8.0]
        std = run_scheme(config("standard", "amplitude-damping", grid))
        anc = run_scheme(config("ancilla", "amplitude-damping", grid))
        for s, a in zip(std, anc):
            assert a.qfi > s.qfi

    def test_rejects_two_qubit_scenario(self):
        with pytest.raises(ValueError, match="1-qubit"):
            run_scheme(config("ancilla", "parallel-dephasing-2q", [0.1]))

    def test_vanishes_at_zero_time(self):
        res = run_scheme(config("ancilla", "parallel-dephasing-1q", [1e-6]))
        assert res[0].qfi <= 1e-9


class TestTheoreticalOptimal:
    def test_closed_form_saturation(self):
        # frozen |+> under pure sigma_x noise: F = ((1 - e^{-g T})/g)^2,
        # up to the central-difference truncation O((delta T)^2)
        from lindmet.metrology import default_delta

        gamma = 0.1
        grid = [2.0, 10.0, 30.0]
        res = run_scheme(config("theoretical_optimal", "transverse-dephasing", grid))
        for r in res:
            oracle = ((1 - np.exp(-gamma * r.T)) / gamma) ** 2
            budget = max(1e-6, 0.5 * (default_delta(OMEGA0, r.T) * r.T) ** 2)
            assert abs(r.qfi - oracle) / oracle <= budget

    def test_schedule_is_constant_minus_omega0(self):
        res = run_scheme(
            config("theoretical_optimal", "transverse-dephasing", [5.0], K=7))
        amps = res[0].schedule.amplitudes
        assert amps.shape == (7, 1)
        assert np.all(amps == -OMEGA0)

    def test_beats_standard_at_moderate_times_small_gamma(self):
        grid = [10.0]
        theo = run_scheme(config("theoretical_optimal", "transverse-dephasing", grid))
        std = run_scheme(config("standard", "transverse-dephasing", grid))
        assert theo[0].qfi > std[0].qfi

    def test_rejected_for_other_scenarios(self):
        with pytest.raises(ValueError, match="transverse"):
            run_scheme(
                config("theoretical_optimal", "parallel-dephasing-1q", [0.1]))


class TestControlEnhanced:
    def test_dominates_standard(self):
        grid = [0.05, 0.2]
        std = run_scheme(config("standard", "parallel-dephasing-1q", grid, K=5))
        ctl = run_control_enhanced(config("control_enhanced", "parallel-dephasing-1q",
                                          grid, K=5, optimizer=SMALL_OPT))
        for s, c in zip(std, ctl):
            assert c.qfi >= s.qfi - 1e-6
            assert c.evaluations > 0

    def test_no_gain_well_inside_coherence_time(self):
        # controls are unnecessary for T << T2
        grid = [0.005]
        std = run_scheme(config("standard", "parallel-dephasing-1q", grid, K=4))
        ctl = run_control_enhanced(config("control_enhanced", "parallel-dephasing-1q",
                                          grid, K=4, optimizer=SMALL_OPT))
        assert abs(ctl[0].qfi - std[0].qfi) / std[0].qfi <= 0.05

    def test_beats_standard_global_peak_beyond_coherence_time(self):
        # at T = 3/gamma the optimized QFI exceeds even the standard scheme's
        # best value over all encoding times, max_T T^2 e^{-2 g T} = e^-2/g^2
        gamma = 10.0
        grid = [0.3]
        std = run_scheme(config("standard", "parallel-dephasing-1q", grid, K=10))
        ctl = run_control_enhanced(config(
            "control_enhanced", "parallel-dephasing-1q", grid, K=10,
            optimizer=OptimizerOptions(restarts=4, max_evals=2500, seed=2)))
        standard_peak = np.exp(-2.0) / gamma**2
        assert ctl[0].qfi > standard_peak
        assert ctl[0].qfi > 3 * std[0].qfi

    def test_bitwise_determinism(self):
        cfg = config("control_enhanced", "parallel-dephasing-1q", [0.1, 0.2],
                     K=4, optimizer=OptimizerOptions(restarts=2, max_evals=200, seed=7))
        a = run_control_enhanced(cfg)
        b = run_control_enhanced(cfg)
        for ra, rb in zip(a, b):
            assert ra.qfi == rb.qfi
            assert ra.sensitivity == rb.sensitivity
            assert np.array_equal(ra.schedule.amplitudes, rb.schedule.amplitudes)
            assert ra.evaluations == rb.evaluations

    def test_schedule_within_bounds(self):
        cfg = config("control_enhanced", "parallel-dephasing-1q", [0.2], K=4,
                     u_max=5.0, optimizer=SMALL_OPT)
        res = run_control_enhanced(cfg)
        assert np.max(np.abs(res[0].schedule.amplitudes)) <= 5.0

    def test_warm_start_adds_a_start_and_stays_deterministic(self):
        base = dict(scheme="control_enhanced", scenario="parallel-dephasing-1q",
                    time_grid=(0.15, 0.2), K=4,
                    optimizer=OptimizerOptions(restarts=2, max_evals=300, seed=3))
        cold = run_control_enhanced(SchemeConfig(**base))
        warm = run_control_enhanced(SchemeConfig(**base, warm_start=True))
        assert warm[0].evaluations == cold[0].evaluations
        assert warm[1].evaluations > cold[1].evaluations
        warm2 = run_control_enhanced(SchemeConfig(**base, warm_start=True))
        for a, b in zip(warm, warm2):
            assert np.array_equal(a.schedule.amplitudes, b.schedule.amplitudes)
            assert a.qfi == b.qfi


class TestSchemeAgreementSmallT:
    def test_all_schemes_agree_within_noiseless_window(self):
        gamma = 10.0
        for frac in (0.02, 0.1):
            grid = [frac / gamma]
            vals = [
                run_scheme(config("standard", "parallel-dephasing-1q", grid, K=4))[0].qfi,
                run_scheme(config("ancilla", "parallel-dephasing-1q", grid, K=4))[0].qfi,
                run_control_enhanced(config("control_enhanced", "parallel-dephasing-1q",
                                            grid, K=4, optimizer=SMALL_OPT))[0].qfi,
            ]
            assert (max(vals) - min(vals)) / min(vals) <= 0.05


class TestAncillaReducedDynamics:
    def test_partial_trace_recovers_system_evolution(self):
        from lindmet.channels import ancilla_extend, build_scenario
        from lindmet.propagation import SlicedDynamics

        model = build_scenario("parallel-dephasing-1q", OMEGA0)
        ext = ancilla_extend(model)
        rho_sys = plus_state(1)
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        sched1 = ControlSchedule.zero(3, 2, 0.12)
        small = SlicedDynamics(model).evolve(sched1, rho_sys)
        big = SlicedDynamics(ext).evolve(ControlSchedule.zero(3, 2, 0.12),
                                         np.kron(rho_sys, ket0))
        reduced = np.einsum("ikjk->ij", big.reshape(2, 2, 2, 2))
        assert np.max(np.abs(reduced - small)) <= 1e-10


class TestMetrologyResult:
    def test_rejects_negative_qfi(self):
        s = ControlSchedule.zero(1, 2, 0.1)
        with pytest.raises(ValueError):
            MetrologyResult(0.1, -1.0, 1.0, s, 0, 0, True)

    def test_rejects_mismatched_duration(self):
        s = ControlSchedule.zero(1, 2, 0.1)
        with pytest.raises(ValueError):
            MetrologyResult(0.2, 1.0, 1.0, s, 0, 0, True)


class TestDispatch:
    def test_run_scheme_routes(self):
        grid = [0.05]
        a = run_scheme(config("standard", "parallel-dephasing-1q", grid))
        b = run_fixed_schedule(config("standard", "parallel-dephasing-1q", grid))
        assert a[0].qfi == b[0].qfi
