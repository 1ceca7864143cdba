import warnings

import numpy as np
import pytest
import scipy.linalg

from lindmet import _kern, schemes
from lindmet.channels import SCENARIOS
from lindmet.liouville import vectorize
from lindmet.metrology import MetrologyError
from lindmet.optimizer import OptimizerOptions, multi_start, nelder_mead
from lindmet.propagation import ControlSchedule, PropagationError, SlicedDynamics
from lindmet.schemes import (MetrologyResult, SchemeConfig, ghz_state,
                             haar_random_state, plus_state, prepare, resolve_probe,
                             run_scheme)

from test_propagation import per_slice_expm_stack, refuse_scipy_expm, runs_of, spy_stack_sizes

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
        ("gamma_c", 0.0), ("gamma_c", -1.0), ("omega0", float("-inf")),
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
            assert not r.schedule.amplitudes.any() and r.schedule.total_time == r.T

    def test_parallel_dephasing_exact(self):
        # the derivative is exact, so only roundoff separates the QFI from
        # T^2 e^(-2 gamma T); a central difference was 3e-8 off
        gamma = 10.0
        res = run_scheme(config("standard", "parallel-dephasing-1q", np.geomspace(0.01, 0.5, 25)))
        for r in res:
            oracle = r.T ** 2 * np.exp(-2 * gamma * r.T)
            assert abs(r.qfi - oracle) <= 1e-11 * oracle

    def test_two_qubit_ghz_exact(self):
        gamma = 10.0
        res = run_scheme(config("standard", "parallel-dephasing-2q", np.geomspace(0.01, 0.5, 25)))
        for r in res:
            oracle = 4 * r.T ** 2 * np.exp(-4 * gamma * r.T)
            assert abs(r.qfi - oracle) <= 1e-11 * oracle

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

    def test_equals_standard_exactly_under_parallel_dephasing(self):
        # the noiseless ancilla adds nothing here, so the two QFIs differ only
        # by roundoff
        grid = np.geomspace(0.01, 0.5, 25)
        std = run_scheme(config("standard", "parallel-dephasing-1q", grid))
        anc = run_scheme(config("ancilla", "parallel-dephasing-1q", grid))
        for s, a in zip(std, anc):
            assert abs(a.qfi - s.qfi) <= 1e-13 * s.qfi

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
        # frozen |+> under pure sigma_x noise: F = ((1 - e^{-g T})/g)^2, up to
        # roundoff (5e-15 measured) since the derivative is exact
        gamma = 0.1
        grid = [2.0, 10.0, 30.0]
        res = run_scheme(config("theoretical_optimal", "transverse-dephasing", grid))
        for r in res:
            oracle = ((1 - np.exp(-gamma * r.T)) / gamma) ** 2
            assert abs(r.qfi - oracle) / oracle <= 1e-12

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
        ctl = run_scheme(config("control_enhanced", "parallel-dephasing-1q",
                                grid, K=5, optimizer=SMALL_OPT))
        for s, c in zip(std, ctl):
            assert c.qfi >= s.qfi - 1e-6
            assert c.evaluations > 0

    def test_no_gain_well_inside_coherence_time(self):
        # controls are unnecessary for T << T2
        grid = [0.005]
        std = run_scheme(config("standard", "parallel-dephasing-1q", grid, K=4))
        ctl = run_scheme(config("control_enhanced", "parallel-dephasing-1q",
                                grid, K=4, optimizer=SMALL_OPT))
        assert abs(ctl[0].qfi - std[0].qfi) / std[0].qfi <= 0.05

    def test_beats_standard_global_peak_beyond_coherence_time(self):
        # at T = 3/gamma the optimized QFI exceeds even the standard scheme's
        # best value over all encoding times, max_T T^2 e^{-2 g T} = e^-2/g^2
        gamma = 10.0
        grid = [0.3]
        std = run_scheme(config("standard", "parallel-dephasing-1q", grid, K=10))
        ctl = run_scheme(config(
            "control_enhanced", "parallel-dephasing-1q", grid, K=10,
            optimizer=OptimizerOptions(restarts=4, max_evals=2500, seed=2)))
        standard_peak = np.exp(-2.0) / gamma**2
        assert ctl[0].qfi > standard_peak
        assert ctl[0].qfi > 3 * std[0].qfi

    def test_bitwise_determinism(self):
        cfg = config("control_enhanced", "parallel-dephasing-1q", [0.1, 0.2],
                     K=4, optimizer=OptimizerOptions(restarts=2, max_evals=200, seed=7))
        a = run_scheme(cfg)
        b = run_scheme(cfg)
        for ra, rb in zip(a, b):
            assert ra.qfi == rb.qfi
            assert ra.sensitivity == rb.sensitivity
            assert np.array_equal(ra.schedule.amplitudes, rb.schedule.amplitudes)
            assert ra.evaluations == rb.evaluations

    def test_schedule_within_bounds(self):
        cfg = config("control_enhanced", "parallel-dephasing-1q", [0.2], K=4,
                     u_max=5.0, optimizer=SMALL_OPT)
        res = run_scheme(cfg)
        assert np.max(np.abs(res[0].schedule.amplitudes)) <= 5.0

    def test_warm_start_adds_a_start_and_stays_deterministic(self):
        base = dict(scheme="control_enhanced", scenario="parallel-dephasing-1q",
                    time_grid=(0.15, 0.2), K=4,
                    optimizer=OptimizerOptions(restarts=2, max_evals=300, seed=3))
        cold = run_scheme(SchemeConfig(**base))
        warm = run_scheme(SchemeConfig(**base, warm_start=True))
        assert warm[0].evaluations == cold[0].evaluations
        assert warm[1].evaluations > cold[1].evaluations
        warm2 = run_scheme(SchemeConfig(**base, warm_start=True))
        for a, b in zip(warm, warm2):
            assert np.array_equal(a.schedule.amplitudes, b.schedule.amplitudes)
            assert a.qfi == b.qfi


def start_by_start(cfg):
    """``control_enhanced`` one T after another and one start after another:
    a ``nelder_mead`` call per start, from the starts ``multi_start`` draws,
    on the objective prepared for that T alone. Per T the reported QFI, the
    schedule's bytes, the evaluations and whether the best start converged."""
    dyn, rho0 = prepare(cfg)
    K, L = cfg.K, dyn.model.n_controls
    u_max = cfg.resolved_u_max
    lower, upper = np.full(K * L, -u_max), np.full(K * L, u_max)
    seeds = schemes._spawned_seeds(cfg.optimizer.seed, len(cfg.time_grid))
    out, previous = [], None
    for i, T in enumerate(cfg.time_grid):
        objective = schemes._objective(dyn.prepare(vectorize(rho0), [T / K]), K, L, [0])
        opt = OptimizerOptions(cfg.optimizer.max_evals or 200 * K * L,
                               cfg.optimizer.restarts, seeds[i + 1])
        rng = np.random.default_rng(opt.seed)
        starts = [previous] if cfg.warm_start and previous is not None else []
        extra = len(starts)
        starts.append(np.zeros(K * L))
        while len(starts) < opt.restarts + extra:
            starts.append(rng.uniform(lower, upper))
        best, evals = None, 0
        for x0 in starts:
            res = nelder_mead(lambda p: objective(np.clip(p, lower, upper)), x0, opt,
                              scale=u_max)
            evals += res.evals
            if best is None or res.fun < best.fun:
                best = res
        previous = np.clip(best.x, lower, upper)
        sched = ControlSchedule(previous.reshape(K, L), T, u_max=u_max)
        out.append((schemes._schedule_qfi(dyn, [sched], rho0)[0].hex(),
                    sched.amplitudes.tobytes(), evals, best.converged))
    return out


class TestLockstepSearch:
    """Every start at every T advances in lockstep, bit for bit the search
    run start by start and T by T."""

    @pytest.mark.parametrize("warm_start", [False, True])
    @pytest.mark.parametrize("scenario", ["parallel-dephasing-1q", "parallel-dephasing-2q",
                                          "transverse-dephasing"])
    def test_records_equal_the_start_by_start_search(self, scenario, warm_start,
                                                     monkeypatch):
        cfg = config("control_enhanced", scenario, [0.1, 0.2, 0.35], K=3,
                     warm_start=warm_start,
                     optimizer=OptimizerOptions(restarts=2, max_evals=60, seed=5))
        calls = []
        real = schemes.multi_start

        def capture(objective, *args, **kwargs):
            def recorded(points, problem):
                calls.append((len(calls), len(points)))
                return objective(points, problem)
            return real(recorded, *args, **kwargs)

        monkeypatch.setattr(schemes, "multi_start", capture)
        got = run_scheme(cfg)
        assert [(r.qfi.hex(), r.schedule.amplitudes.tobytes(), r.evaluations, r.converged)
                for r in got] == start_by_start(cfg)
        assert all(r.evaluations >= 2 * 60 for r in got)
        # the first call holds the initial simplex, K x L + 1 points, of every
        # start at every T; with warm_start, of every start at the first T
        n = 3 * prepare(cfg)[0].model.n_controls
        assert calls[0][1] == (1 if warm_start else 3) * 2 * (n + 1)


class TestOneKernelCallPerQfi:
    """A QFI is one propagation of Van Loan blocks, which carry the state and
    its frequency derivative together; a two-qubit register (m = 16) as two
    sites of 8x8 blocks, whose runs share one exponential call."""

    K = 6

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The shapes of each site's drift and of the slice lengths in each
        later ``propagate_schedule`` call, and the number of generators each
        ``expm_stack`` call receives."""
        shapes = []
        real = _kern.propagate_schedule

        def spy(L0, ctrls, amps, dt, v0):
            drifts = L0 if isinstance(L0, tuple) else (L0,)
            shapes.append(([np.shape(D) for D in drifts], np.shape(dt)))
            return real(L0, ctrls, amps, dt, v0)

        monkeypatch.setattr(_kern, "propagate_schedule", spy)
        return shapes, spy_stack_sizes(monkeypatch)

    def _amplitudes(self, n_fields):
        # K rows with rows 2 and 3 equal: K - 1 runs on every site
        amps = np.random.default_rng(n_fields).uniform(-40, 40, (self.K, n_fields))
        amps[3] = amps[2]
        return amps

    @pytest.mark.parametrize("scenario, m, n_fields", [("parallel-dephasing-1q", 4, 2),
                                                       ("parallel-dephasing-2q", 16, 4)])
    def test_search_objective(self, scenario, m, n_fields, kernel_calls, monkeypatch):
        captured = []
        real = schemes.multi_start

        def capture(objective, *args, **kwargs):
            captured.append(objective)
            return real(objective, *args, **kwargs)

        monkeypatch.setattr(schemes, "multi_start", capture)
        run_scheme(config("control_enhanced", scenario, [0.3], K=self.K,
                          optimizer=OptimizerOptions(restarts=1, max_evals=1)))
        shapes, sizes = kernel_calls
        shapes.clear()
        sizes.clear()
        captured[0](self._amplitudes(n_fields).ravel())
        sites = {4: 1, 16: 2}[m]
        # one drift per site, a stack of one grid at its slice length
        assert shapes == [([(8, 8)] * sites, (1,))]
        assert sizes == [sites * (self.K - 1)]
        # a grid and its initial simplex are one call, which exponentiates
        # one generator per site for each run of equal rows of every grid
        base = self._amplitudes(n_fields).ravel()
        simplex = base + np.vstack([np.zeros(base.size), 2.0 * np.eye(base.size)])
        shapes.clear()
        sizes.clear()
        captured[0](simplex)
        assert shapes == [([(8, 8)] * sites, (len(simplex),))]
        assert sizes == [sites * runs_of(simplex.reshape(-1, self.K, n_fields))]

    @pytest.mark.parametrize("scenario, m", [("parallel-dephasing-1q", 4),
                                             ("parallel-dephasing-2q", 16)])
    def test_checked_qfi(self, scenario, m, kernel_calls):
        cfg = config("standard", scenario, [0.1, 0.2], K=self.K)
        dyn, rho0 = prepare(cfg)
        shapes, sizes = kernel_calls
        sites = {4: 1, 16: 2}[m]
        # both encoding times in one call; the zero schedule is one run per site
        run_scheme(cfg)
        assert shapes == [([(8, 8)] * sites, (2,))]
        assert sizes == [sites * 2]
        shapes.clear()
        sizes.clear()
        sched = ControlSchedule(self._amplitudes(dyn.model.n_controls), 0.3)
        assert schemes._schedule_qfi(dyn, [sched], rho0)[0] > 0
        assert shapes == [([(8, 8)] * sites, (1,))]
        assert sizes == [sites * (self.K - 1)]

    def test_search_prepares_its_probe_once(self, monkeypatch):
        prepared = []
        real = SlicedDynamics.prepare

        def spy(dyn, v0, dt, *args):
            prepared.append(list(dt))
            return real(dyn, v0, dt, *args)

        monkeypatch.setattr(SlicedDynamics, "prepare", spy)
        got = run_scheme(config("control_enhanced", "parallel-dephasing-1q", [0.1, 0.2], K=4,
                                optimizer=OptimizerOptions(restarts=1, max_evals=30)))
        # the fixed schedule's whole grid once, then one probe over the
        # whole grid that serves every evaluation of the search at every T,
        # and one for the checked call that reports every T's best schedule
        dt = [0.1 / 4, 0.2 / 4]
        assert prepared == [dt, dt, dt]
        assert [r.evaluations for r in got] == [30, 30]

    def test_search_run_makes_two_checked_calls(self, monkeypatch):
        # outside its objective, a control_enhanced run propagates twice: the
        # fixed schedule and the reported optima, each a stack of one grid
        # per T at that T's slice length
        grid = [0.1, 0.2, 0.35]
        calls, searching = [], []
        real, real_search = _kern.propagate_schedule, schemes.multi_start

        def spy(L0, ctrls, amps, dt, v0):
            if not searching:
                calls.append((np.shape(amps[0]), np.asarray(dt).tolist()))
            return real(L0, ctrls, amps, dt, v0)

        def search(objective, *args, **kwargs):
            def inside(*a, **k):
                searching.append(True)
                try:
                    return objective(*a, **k)
                finally:
                    searching.pop()
            return real_search(inside, *args, **kwargs)

        monkeypatch.setattr(_kern, "propagate_schedule", spy)
        monkeypatch.setattr(schemes, "multi_start", search)
        got = run_scheme(config("control_enhanced", "parallel-dephasing-1q", grid, K=self.K,
                                optimizer=OptimizerOptions(restarts=2, max_evals=40)))
        dt = [T / self.K for T in grid]
        assert calls == [((3, self.K, 2), dt)] * 2
        assert [r.T for r in got] == grid


class TestPreparedObjective:
    """The search objective, on the probe prepared once for its T, scores an
    amplitude grid bit for bit as the checked ``_schedule_qfi`` does on the
    probe state itself."""

    K, T = 6, 0.3
    # the search's own registers, and each qubit with its idle ancilla site
    REGISTERS = [*(("control_enhanced", name) for name in SCENARIOS),
                 *(("ancilla", name) for name in SCENARIOS if not name.endswith("2q"))]

    def _objective(self, dyn, rho0, T):
        probe = dyn.prepare(vectorize(rho0), [T / self.K])
        return schemes._objective(probe, self.K, dyn.model.n_controls, [0])

    @pytest.mark.parametrize("scheme, scenario", REGISTERS)
    def test_same_bits_as_the_checked_qfi(self, scheme, scenario, monkeypatch):
        cfg = config(scheme, scenario, [self.T], K=self.K,
                     optimizer=OptimizerOptions(restarts=1, max_evals=1))
        dyn, rho0 = prepare(cfg)
        L = dyn.model.n_controls
        random = np.random.default_rng(L).uniform(-40, 40, (self.K, L))
        random[3] = random[2]  # runs of equal rows
        random[5] = random[4]
        if scheme == "control_enhanced":
            # the objective the search itself is handed
            captured = []

            def capture(f, *args, **kwargs):
                captured.append(f)
                return multi_start(f, *args, **kwargs)

            monkeypatch.setattr(schemes, "multi_start", capture)
            run_scheme(cfg)
            objective = captured[0]
        else:
            objective = self._objective(dyn, rho0, self.T)
        for amps in (np.zeros((self.K, L)), np.full((self.K, L), 7.5), random):
            checked, = schemes._schedule_qfi(dyn, [ControlSchedule(amps, self.T)], rho0)
            assert checked > 0
            assert (-objective(amps.ravel())).hex() == checked.hex()

    def test_overflowing_generators(self):
        # the amplitudes times the slice length overflow: the unchecked
        # objective scores the NaN state 0, the checked QFI names T
        T = 1e10
        dyn, rho0 = prepare(config("standard", "parallel-dephasing-1q", [T], K=self.K))
        amps = np.full((self.K, 2), 1e300)
        assert self._objective(dyn, rho0, T)(amps.ravel()) == 0
        with pytest.raises(PropagationError, match=r"^at T=1e\+10 s: .* nan$"):
            schemes._schedule_qfi(dyn, [ControlSchedule(amps, T)], rho0)

    def test_overflowing_qfi(self, monkeypatch):
        # a noiseless qubit's frequency derivative grows with T, and at a
        # subnormal omega0 its QFI T^2 would overflow; its slices need more
        # squarings than the kernel takes, so their state is NaN: the
        # unchecked objective scores it 0 and the checked path names T,
        # neither with a warning. A QFI that overflows is named the same way
        T = 1e300
        dyn, rho0 = prepare(config("standard", "parallel-dephasing-1q", [T], K=self.K,
                                   omega0=5e-324, rates=(("gamma", 0.0),)))
        amps = np.zeros((self.K, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._objective(dyn, rho0, T)(amps.ravel()) == 0
            with pytest.raises(PropagationError, match=r"^at T=1e\+300 s: propagated state"):
                schemes._schedule_qfi(dyn, [ControlSchedule(amps, T)], rho0)
            monkeypatch.setattr(schemes, "qfi_eigen", lambda rho, drho: np.full(len(rho), np.inf))
            with pytest.raises(MetrologyError, match=r"^at T=0\.3 s: the QFI is not a finite"):
                schemes._schedule_qfi(dyn, [ControlSchedule(amps, 0.3)], rho0)

    @pytest.mark.parametrize("scheme, scenario", [("control_enhanced", "parallel-dephasing-1q"),
                                                  ("control_enhanced", "parallel-dephasing-2q"),
                                                  ("ancilla", "parallel-dephasing-1q")])
    def test_a_batch_is_its_rows_bit_for_bit(self, scheme, scenario):
        # the ancilla register has an idle site
        cfg = config(scheme, scenario, [self.T], K=self.K)
        dyn, rho0 = prepare(cfg)
        objective = self._objective(dyn, rho0, self.T)
        L = dyn.model.n_controls
        n = self.K * L
        random = np.random.default_rng(L).uniform(-40, 40, (self.K, L))
        random[3] = random[2]  # 5 runs
        simplex = random.ravel() + np.vstack([np.zeros(n), 0.05 * cfg.resolved_u_max * np.eye(n)])
        pairs = np.repeat(random[::2], 2, axis=0)  # 3 runs
        batch = np.vstack([np.zeros(n), random.ravel(), simplex, random.ravel(),
                           np.full(n, 7.5), pairs.ravel(), np.full(n, 1e300)])
        values = objective(batch)
        one_by_one = np.array([objective(x) for x in batch])
        assert values.shape == (len(batch),)
        assert np.array_equal(values.view(np.uint64), one_by_one.view(np.uint64))
        # the overflowing grid scores 0, every other a negative QFI
        assert values[-1] == 0 and (values[:-1] < 0).all()

    def test_amplitudes_must_be_finite_and_fill_the_grid(self):
        dyn, rho0 = prepare(config("standard", "parallel-dephasing-1q", [self.T], K=self.K))
        objective = self._objective(dyn, rho0, self.T)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                objective(np.full(2 * self.K, bad))
        with pytest.raises(ValueError):
            objective(np.zeros(2 * self.K + 1))
        # a stack is checked as a whole, and must be flat points
        points = np.zeros((3, 2 * self.K))
        points[1, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            objective(points)
        for bad in (np.zeros((3, 2 * self.K + 1)), np.zeros((1, 3, 2 * self.K))):
            with pytest.raises(ValueError, match="flat"):
                objective(bad)


# (scheme, scenario) pairs whose fixed schedule is scored over the grid
FIXED_RUNS = [*(("standard", name) for name in SCENARIOS),
              ("ancilla", "parallel-dephasing-1q"), ("ancilla", "amplitude-damping"),
              ("theoretical_optimal", "transverse-dephasing")]


class TestFixedScheduleBlocks:
    """A fixed schedule goes through the kernel in one call per time grid."""

    @pytest.mark.parametrize("scheme, scenario", FIXED_RUNS)
    def test_blocks_equal_one_call_per_time(self, scheme, scenario):
        grid = np.geomspace(0.01, 2.0, 37)
        cfg = config(scheme, scenario, grid, K=5)
        dyn, rho0 = prepare(cfg)
        amplitude = -OMEGA0 if scheme == "theoretical_optimal" else 0.0
        sched = lambda T: ControlSchedule(np.full((5, dyn.model.n_controls), amplitude), T)
        per_time = [schemes._schedule_qfi(dyn, [sched(T)], rho0)[0] for T in cfg.time_grid]
        got = run_scheme(cfg)
        assert [r.qfi for r in got] == per_time
        assert all(type(r.qfi) is float for r in got)
        assert [r.sensitivity for r in got] == [
            schemes.sensitivity(q, T) for q, T in zip(per_time, cfg.time_grid)]

    def test_kernel_calls_per_grid(self, monkeypatch):
        calls = []
        real = _kern.propagate_schedule

        def spy(L0, ctrls, amps, dt, v0):
            # the system site's drift, over one slice length per T; the idle
            # ancilla passes none
            assert isinstance(L0, tuple) and L0[1] is None and np.shape(L0[0]) == (8, 8)
            calls.append(len(dt))
            return real(L0, ctrls, amps, dt, v0)

        monkeypatch.setattr(_kern, "propagate_schedule", spy)
        run_scheme(config("ancilla", "amplitude-damping", np.linspace(0.5, 40.0, 100), K=4))
        # one Van Loan block per T, all in one call
        assert calls == [100]

    def test_error_names_first_failing_time(self):
        # at the last two times a slice's generator times its length overflows,
        # so their states are NaN; the earlier ones pass their checks
        grid = [*np.geomspace(0.01, 1.0, 35), 8e307, 1e308]
        with pytest.raises(PropagationError) as err:
            run_scheme(config("standard", "parallel-dephasing-1q", grid, K=4))
        assert str(err.value) == "at T=8e+307 s: propagated state trace deviates from 1 by nan"


# The sweep workload's fixed-schedule runs (K = 20) whose zero-control, or for
# theoretical_optimal drift-cancelling, generators are diagonal or
# triangular in some basis: amplitude damping's are upper triangular and
# parallel dephasing's diagonal in the column-stacked one, and the
# drift-cancelling block of transverse dephasing would be lower triangular
# in the Pauli basis. (scheme, scenario, rates, time grid)
AD_GRID = tuple(np.linspace(0.5, 40.0, 100))
PD_GRID = tuple(np.geomspace(0.01, 0.5, 100))
TD_GRID = tuple(np.geomspace(0.4, 40.0, 100))
AD_RATES = (("gamma_minus", 0.2), ("gamma_plus", 0.0))
SWEEP_SPECIAL_SLICES = [
    ("standard", "amplitude-damping", AD_RATES, AD_GRID),
    ("ancilla", "amplitude-damping", AD_RATES, AD_GRID),
    ("standard", "parallel-dephasing-1q", (("gamma", 10.0),), PD_GRID),
    ("ancilla", "parallel-dephasing-1q", (("gamma", 10.0),), PD_GRID),
    ("standard", "parallel-dephasing-2q", (("gamma1", 10.0), ("gamma2", 10.0)), PD_GRID),
    ("theoretical_optimal", "transverse-dephasing", (("gamma", 0.1),), TD_GRID),
]


class TestSpecialSlicesOnSweepGrids:
    """Every QFI of these runs is bit for bit the run whose exponentials all
    come one slice at a time from ``_kern.expm_stack``, and close to the run
    whose exponentials all come from ``scipy.linalg.expm``, whose diagonal
    and triangular slices take their own branches."""

    @pytest.mark.parametrize("scheme, scenario, rates, grid", SWEEP_SPECIAL_SLICES,
                             ids=[f"{s}-{c}" for s, c, *_ in SWEEP_SPECIAL_SLICES])
    def test_fixed_qfis_match_per_slice_expm(self, scheme, scenario, rates, grid,
                                             monkeypatch):
        cfg = config(scheme, scenario, grid, rates=rates)
        with monkeypatch.context() as patch:
            patch.setattr(_kern, "expm_stack", per_slice_expm_stack)
            ref = [r.qfi for r in run_scheme(cfg)]
        with monkeypatch.context() as patch:
            patch.setattr(_kern, "expm_stack", scipy.linalg.expm)
            scipy_ref = np.array([r.qfi for r in run_scheme(cfg)])
        shapes = []
        real = _kern.expm_stack

        def spy(A):
            shapes.append(A.shape)
            return real(A)

        monkeypatch.setattr(_kern, "expm_stack", spy)
        refuse_scipy_expm(monkeypatch)
        got = [r.qfi for r in run_scheme(cfg)]
        assert got == ref
        assert np.max(np.abs(np.array(got) - scipy_ref) / scipy_ref) <= 1e-11
        # one call, one 8x8 block per T and site
        sites = 2 if scenario.endswith("2q") else 1
        assert shapes == [(sites * len(grid), 8, 8)]


class TestSchemeAgreementSmallT:
    def test_all_schemes_agree_within_noiseless_window(self):
        gamma = 10.0
        for frac in (0.02, 0.1):
            grid = [frac / gamma]
            vals = [
                run_scheme(config("standard", "parallel-dephasing-1q", grid, K=4))[0].qfi,
                run_scheme(config("ancilla", "parallel-dephasing-1q", grid, K=4))[0].qfi,
                run_scheme(config("control_enhanced", "parallel-dephasing-1q",
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
        for qfi in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="non-negative"):
                MetrologyResult(0.1, qfi, 1.0, s, 0, 0, True)

    def test_rejects_mismatched_duration(self):
        s = ControlSchedule.zero(1, 2, 0.1)
        with pytest.raises(ValueError):
            MetrologyResult(0.2, 1.0, 1.0, s, 0, 0, True)
