"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured numbers (run with -s to see them as they complete).

Criterion 5 checks the control gain between the two bounds that the master
equation pinned by criterion 1 sets: above the standard scheme's peak, and at
most the optimum of an independent Bloch-equation oracle with unbounded
control (``bloch_oracle.py``, pinned by ``test_bloch_oracle.py``).
"""
import time

import numpy as np

from lindmet.channels import build_scenario
from lindmet.config import load_nmr_config
from lindmet.liouville import lindbladian, vectorize
from lindmet.metrology import drho_domega, qfi_eigen, qfi_fidelity
from lindmet.optimizer import OptimizerOptions, multi_start, nelder_mead
from lindmet.propagation import ControlSchedule, SlicedDynamics
from lindmet.schemes import (SchemeConfig, ghz_state, haar_random_state,
                             plus_state, run_scheme)

from bloch_oracle import max_qfi
from test_metrology import fidelity_delta

OMEGA0 = 2 * np.pi


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def cfg(scheme, scenario, grid, **kw):
    return SchemeConfig(scheme=scheme, scenario=scenario, time_grid=tuple(grid), **kw)


def test_criterion_1_analytic_qfi_oracle():
    """Parallel dephasing standard scheme matches T^2 exp(-2 g T) to 1e-6."""
    t0 = time.time()
    gamma = 10.0
    grid = np.geomspace(0.01, 0.5, 30)
    res = run_scheme(cfg("standard", "parallel-dephasing-1q", grid))
    rel = max(abs(r.qfi - r.T**2 * np.exp(-2 * gamma * r.T))
              / (r.T**2 * np.exp(-2 * gamma * r.T)) for r in res)
    elapsed = time.time() - t0
    ok = rel <= 1e-6 and elapsed < 5.0
    assert report(1, ok, f"max rel err {rel:.2e} (tol 1e-6), {elapsed:.2f}s (< 5s)")


def test_criterion_2_optimal_time_relations():
    """QFI-optimal encoding times match the predicted 2/gamma (and 1/gamma) laws."""
    t0 = time.time()
    # (a) amplitude damping, gamma = 0.2: T_opt = 10 s on a 0.25 s grid
    grid_a = np.arange(0.25, 20.0 + 1e-9, 0.25)
    res_a = run_scheme(cfg("standard", "amplitude-damping", grid_a))
    t_opt_a = max(res_a, key=lambda r: r.qfi).T
    ok_a = abs(t_opt_a - 10.0) <= 0.25 + 1e-12

    # (b) transverse dephasing, gamma = 0.1: T_opt in [18, 22]
    grid_b = np.arange(1.0, 30.0 + 1e-9, 0.5)
    res_b = run_scheme(cfg("standard", "transverse-dephasing", grid_b))
    t_opt_b = max(res_b, key=lambda r: r.qfi).T
    ok_b = 18.0 <= t_opt_b <= 22.0

    # (c) parallel dephasing: QFI peak at 1/gamma on a 0.01 s grid
    grid_c = np.arange(0.02, 0.30 + 1e-9, 0.01)
    res_c = run_scheme(cfg("standard", "parallel-dephasing-1q", grid_c))
    t_opt_c = max(res_c, key=lambda r: r.qfi).T
    ok_c = abs(t_opt_c - 0.1) <= 0.01 + 1e-12

    elapsed = time.time() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 60.0
    assert report(2, ok, f"T_opt: damping {t_opt_a:.2f}s (10 +/- 0.25), "
                         f"transverse {t_opt_b:.1f}s ([18, 22]), "
                         f"dephasing {t_opt_c:.2f}s (0.1 +/- 0.01); {elapsed:.1f}s")


def test_criterion_3_estimator_cross_validation():
    """Eigendecomposition and fidelity QFI agree within 2% on all scenarios."""
    t0 = time.time()
    grids = {
        "parallel-dephasing-1q": np.linspace(0.02, 0.5, 10),
        "parallel-dephasing-2q": np.linspace(0.01, 0.3, 10),
        "transverse-dephasing": np.linspace(2.0, 40.0, 10),
        "amplitude-damping": np.linspace(1.0, 20.0, 10),
    }
    worst = 0.0
    for scenario, grid in grids.items():
        model = build_scenario(scenario, OMEGA0)
        dyn = SlicedDynamics(model)
        rho0 = plus_state(1) if model.dim == 2 else ghz_state(2)
        for T in grid:
            s = ControlSchedule.zero(1, model.n_controls, T)
            rho, d = drho_domega(dyn, s, rho0)
            eig = qfi_eigen(rho, d)
            delta = fidelity_delta(OMEGA0, T)
            fid = qfi_fidelity(rho, dyn.evolve(s, rho0, OMEGA0 + delta), delta)
            worst = max(worst, abs(fid - eig) / eig)
    elapsed = time.time() - t0
    ok = worst <= 0.02 and elapsed < 60.0
    assert report(3, ok, f"worst rel disagreement {worst:.4f} (tol 0.02); {elapsed:.1f}s")


def test_criterion_4_control_enhanced_dominance():
    """Optimized QFI never falls below the standard scheme (zero start seeded)."""
    t0 = time.time()
    grids = {
        "parallel-dephasing-1q": (0.02, 0.1, 0.3),
        "parallel-dephasing-2q": (0.01, 0.05, 0.15),
        "transverse-dephasing": (2.0, 10.0, 25.0),
        "amplitude-damping": (2.0, 8.0, 14.0),
    }
    opts = OptimizerOptions(restarts=2, max_evals=200, seed=17)
    worst_gap = -np.inf
    for scenario, grid in grids.items():
        std = run_scheme(cfg("standard", scenario, grid, K=4))
        ctl = run_scheme(cfg("control_enhanced", scenario, grid, K=4,
                             optimizer=opts))
        for s, c in zip(std, ctl):
            worst_gap = max(worst_gap, s.qfi - c.qfi)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-6
    assert report(4, ok, f"worst (standard - optimized) = {worst_gap:.2e} "
                         f"(tol 1e-6); {elapsed:.1f}s")


def test_criterion_5_control_enhanced_gain():
    """Optimized QFI at T = 3*T2 lies between the bounds the physics sets:
    peak < F_ctrl <= F*, with F* < 2*peak.

    peak = (1/gamma)^2 e^-2 is the standard scheme's best over all encoding
    times. At 3*T2 the zero schedule gives 0.165x of it, and parking the
    state on the pole before a T2-long Ramsey gives exactly 1x, so only a
    real control gain passes the lower bound.

    F* is the Bloch-equation oracle's optimum with unbounded, instantaneous
    SU(2) control over 40 piecewise-constant axes. With N axes it reaches
    1.704x, 1.742x, 1.752x and 1.754x the peak at N = 10, 20, 40 and 80; the
    steps shrink as 1/N^2 towards about 1.755x, the bound on any x/y
    schedule. F* at N = 40 lies 0.2% below that bound, and the bounded
    20-slice search stops near 1.57x, so a value above F* points to a
    propagation or derivative bug. F* < 2*peak is why no control meets the
    former 2x bar.
    """
    t0 = time.time()
    gamma, T = 10.0, 0.3
    res = run_scheme(cfg(
        "control_enhanced", "parallel-dephasing-1q", (T,), K=20,
        optimizer=OptimizerOptions(restarts=20, seed=20250810)))[0]
    peak = (1 / gamma) ** 2 * np.exp(-2.0)
    standard_at_T = T**2 * np.exp(-2 * gamma * T)
    f_star = max_qfi(T, OMEGA0, gamma, n_axes=40)
    elapsed = time.time() - t0
    ok = peak < res.qfi <= f_star and f_star < 2.0 * peak
    detail = (f"optimized QFI {res.qfi:.4e} = {res.qfi / peak:.3f}x standard peak "
              f"{peak:.4e}, {res.qfi / f_star:.3f}x oracle F* {f_star:.4e} "
              f"(F* = {f_star / peak:.3f}x peak), {res.qfi / standard_at_T:.2f}x "
              f"same-T standard {standard_at_T:.4e}; evals {res.evaluations}; "
              f"{elapsed:.0f}s")
    assert report(5, ok, detail), f"expected peak < F_ctrl <= F* < 2*peak: {detail}"


def test_criterion_6_theoretical_optimal_regimes():
    """Drift-cancelling control beats the standard scheme only at small gamma."""
    t0 = time.time()
    # gamma = 0.1 at T = 10 s: the control law wins
    theo = run_scheme(cfg("theoretical_optimal", "transverse-dephasing",
                          (10.0,)))[0].qfi
    std = run_scheme(cfg("standard", "transverse-dephasing", (10.0,)))[0].qfi
    ok_small = theo > std

    # gamma = 10: no improvement anywhere on the tested grid
    grid = np.linspace(0.02, 0.4, 20)
    rates = (("gamma", 10.0),)
    theo_b = run_scheme(cfg("theoretical_optimal", "transverse-dephasing",
                            grid, rates=rates))
    std_b = run_scheme(cfg("standard", "transverse-dephasing", grid, rates=rates))
    ok_large = all(t.qfi <= s.qfi for t, s in zip(theo_b, std_b))
    elapsed = time.time() - t0
    ok = ok_small and ok_large and elapsed < 60.0
    assert report(6, ok, f"gamma=0.1 at 10s: theo {theo:.2f} > std {std:.2f} "
                         f"({ok_small}); gamma=10: no crossing on [0.02, 0.4]s "
                         f"({ok_large}); {elapsed:.1f}s")


def test_criterion_7_physicality_suite():
    """200 random (scenario, schedule, probe) triples stay physical and the
    superoperator matches the direct master-equation right-hand side."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    scenarios = ("parallel-dephasing-1q", "parallel-dephasing-2q",
                 "transverse-dephasing", "amplitude-damping")
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "oracle": 0.0}
    for trial in range(200):
        scenario = scenarios[trial % 4]
        model = build_scenario(scenario, OMEGA0)
        dyn = SlicedDynamics(model)
        rho0 = haar_random_state(model.dim, rng)
        K = int(rng.integers(1, 8))
        amps = rng.uniform(-60, 60, (K, model.n_controls))
        T = float(rng.uniform(0.005, 0.8))
        rho = dyn.evolve(ControlSchedule(amps, T), rho0)
        worst["trace"] = max(worst["trace"], abs(np.trace(rho) - 1.0))
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(rho - rho.conj().T))))
        worst["eig"] = max(worst["eig"], max(0.0, -float(np.linalg.eigvalsh(rho)[0])))

        H = model.omega0 * model.generator + sum(
            float(a) * Hc for a, Hc in zip(amps[0], model.control_hams))
        L = lindbladian(H, model.channel)
        rhs = -1j * (H @ rho0 - rho0 @ H)
        for Lv, g in zip(model.channel.lindblad_ops, model.channel.rates):
            LdL = Lv.conj().T @ Lv
            rhs = rhs + g * (Lv @ rho0 @ Lv.conj().T - 0.5 * (LdL @ rho0 + rho0 @ LdL))
        err = float(np.max(np.abs(L @ vectorize(rho0) - vectorize(rhs))))
        worst["oracle"] = max(worst["oracle"], err)
    elapsed = time.time() - t0
    ok = (worst["trace"] <= 1e-10 and worst["herm"] <= 1e-10
          and worst["eig"] <= 1e-10 and worst["oracle"] <= 1e-12
          and elapsed < 30.0)
    assert report(7, ok, f"worst trace {worst['trace']:.1e}, herm {worst['herm']:.1e}, "
                         f"negativity {worst['eig']:.1e}, oracle {worst['oracle']:.1e}; "
                         f"{elapsed:.1f}s")


def test_criterion_8_optimizer_sanity():
    """Rosenbrock, brute-force-checked multimodal search, and determinism."""
    t0 = time.time()
    # the objectives map a stack of points to their values, one row at a time
    rows = lambda f: lambda points: np.array([f(x) for x in points])
    rosen = rows(lambda x: float((1 - x[0])**2 + 100 * (x[1] - x[0]**2)**2))
    r = nelder_mead(rosen, np.array([-1.2, 1.0]))
    ok_rosen = np.max(np.abs(r.x - 1.0)) <= 1e-4

    f = rows(lambda x: float(np.sin(5 * x[0]) + 0.1 * x[0]**2))
    xs = np.arange(-10, 10, 1e-4)
    brute = xs[np.argmin(np.sin(5 * xs) + 0.1 * xs**2)]
    m = multi_start(f, [-10.0], [10.0], OptimizerOptions(restarts=20, seed=3))
    ok_multi = abs(m.x[0] - brute) <= 1e-3

    m2 = multi_start(f, [-10.0], [10.0], OptimizerOptions(restarts=20, seed=3))
    ok_det = np.array_equal(m.x, m2.x) and m.fun == m2.fun
    elapsed = time.time() - t0
    ok = ok_rosen and ok_multi and ok_det and elapsed < 10.0
    assert report(8, ok, f"rosenbrock |x-1| {np.max(np.abs(r.x-1)):.1e} (tol 1e-4), "
                         f"multimodal gap {abs(m.x[0]-brute):.1e} (tol 1e-3), "
                         f"deterministic {ok_det}; {elapsed:.1f}s")


def test_criterion_9_nmr_protocol_gain():
    """Control-enhanced vs standard QFI at T = 2.5*T2 for the NMR setup."""
    t0 = time.time()
    nmr = load_nmr_config("[nmr]\nseed = 0\n", is_path=False)
    std_cfg = nmr.scheme_config("standard")
    ctl_cfg = nmr.scheme_config("control_enhanced")
    T_end = std_cfg.time_grid[-1]

    from dataclasses import replace
    std = run_scheme(replace(std_cfg, time_grid=(T_end,)))[0]
    ctl = run_scheme(replace(ctl_cfg, time_grid=(T_end,)))[0]
    ratio = ctl.qfi / std.qfi
    elapsed = time.time() - t0
    ok = ratio >= 1.5
    assert report(9, ok, f"T=2.5*T2={T_end:.4f}s: control {ctl.qfi:.4e} vs "
                         f"standard {std.qfi:.4e}, ratio {ratio:.2f} "
                         f"(threshold 1.5); {elapsed:.0f}s")
