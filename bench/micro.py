"""The kernel and objective in isolation, timed in blocks.

These are the six cases of ``benchmarks/bench_backends.py`` on the loaded
kernel backend, reported as the median and interquartile range of the
per-call time over several blocks instead of the mean of one block.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

BLOCKS = 7
BLOCK_S = 0.06
T = 0.3
K = 20
AMPLITUDE = 40.0


def block_times(fn, blocks=BLOCKS, block_s=BLOCK_S, clock=time.perf_counter) -> list[float]:
    """Per-call seconds of ``fn`` in each of ``blocks`` equally sized blocks."""
    fn()
    t0 = clock()
    fn()
    reps = max(1, int(block_s / max(clock() - t0, 1e-9)))
    out = []
    for _ in range(blocks):
        t0 = clock()
        for _ in range(reps):
            fn()
        out.append((clock() - t0) / reps)
    return out


def _captured_objective(scenario: str):
    """The objective a control search hands to ``multi_start`` at (T, K)."""
    from lindmet import schemes
    from lindmet.optimizer import OptimizerOptions

    captured = []
    real = schemes.multi_start

    def capture(objective, *args, **kwargs):
        captured.append(objective)
        return real(objective, *args, **kwargs)

    schemes.multi_start = capture
    try:
        schemes.run_scheme(schemes.SchemeConfig(
            "control_enhanced", scenario, (T,), K=K,
            optimizer=OptimizerOptions(restarts=1, max_evals=1)))
    finally:
        schemes.multi_start = real
    return captured[0]


def _cases(rng):
    from lindmet import _kern
    from lindmet.channels import build_scenario
    from lindmet.liouville import vectorize
    from lindmet.propagation import SlicedDynamics
    from lindmet.schemes import ghz_state, plus_state

    def expm(m):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        return lambda: _kern.expm(a)

    def propagate(scenario, probe):
        dyn = SlicedDynamics(build_scenario(scenario, 2 * np.pi))
        amps = rng.uniform(-AMPLITUDE, AMPLITUDE, (K, dyn.model.n_controls))
        L0, v0 = dyn.constant_generator(), vectorize(probe)
        return lambda: _kern.propagate_schedule(L0, dyn.control_supers, amps, T / K, v0)

    def objective(scenario, n_controls):
        fn = _captured_objective(scenario)
        x = rng.uniform(-AMPLITUDE, AMPLITUDE, K * n_controls)
        return lambda: fn(x)

    return {
        "expm_4x4": expm(4),
        "expm_16x16": expm(16),
        "propagate_1q_K20": propagate("parallel-dephasing-1q", plus_state(1)),
        "propagate_2q_K20": propagate("parallel-dephasing-2q", ghz_state(2)),
        "objective_1q_K20": objective("parallel-dephasing-1q", 2),
        "objective_2q_K20": objective("parallel-dephasing-2q", 4),
    }


def micro_metrics(seed: int) -> dict:
    """``micro.<case>.us`` (median) and ``micro.<case>.iqr_us`` for every case."""
    out = {}
    for name, fn in _cases(np.random.default_rng(seed)).items():
        per_call = block_times(fn)
        q1, _, q3 = statistics.quantiles(per_call, n=4)
        out[f"micro.{name}.us"] = statistics.median(per_call) * 1e6
        out[f"micro.{name}.iqr_us"] = (q3 - q1) * 1e6
    return out
