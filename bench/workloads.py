"""Workload definitions: the `lindmet run` configs each workload generates.

A workload is a list of calls; each call is one `lindmet run` invocation on
a config written from a :class:`Call`. The workload seed reaches the program
only as the config's ``seed`` key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
FIXED_SCHEMES = ("standard", "ancilla", "theoretical_optimal")


@dataclass(frozen=True)
class Call:
    """One `lindmet run` invocation of a workload."""

    name: str
    scenario: str
    schemes: tuple
    rates: tuple  # ((rate name, value), ...)
    grid: tuple  # (start, stop, points, spacing)
    K: int = 20
    restarts: int = 1
    max_evals: int = 0  # 0: the config leaves the optimizer budget at its default
    plot_data: bool = False
    omega0: float = TWO_PI

    def times(self) -> list[float]:
        """Encoding times the program is expected to report, in grid order."""
        start, stop, points, spacing = self.grid
        if points == 1:
            return [float(start)]
        space = np.geomspace if spacing == "log" else np.linspace
        return [float(t) for t in space(start, stop, points)]

    def expected_rows(self) -> list[tuple[str, float]]:
        return [(scheme, T) for scheme in self.schemes for T in self.times()]

    def config_text(self, seed: int) -> str:
        start, stop, points, spacing = self.grid
        lines = [
            "[run]",
            f"scenario = {self.scenario}",
            f"schemes = {', '.join(self.schemes)}",
            f"omega0 = {self.omega0!r}",
            f"seed = {seed}",
            "",
            "[channel]",
            *(f"{k} = {v!r}" for k, v in self.rates),
            "",
            "[time_grid]",
            f"start = {start!r}",
            f"stop = {stop!r}",
            f"points = {points}",
            f"spacing = {spacing}",
            "",
            "[control]",
            f"K = {self.K}",
            "",
            "[optimizer]",
            f"restarts = {self.restarts}",
        ]
        if self.max_evals:
            lines.append(f"max_evals = {self.max_evals}")
        return "\n".join(lines) + "\n"


# Criterion 5's operating point (gamma = 10, omega0 = 2 pi, K = 20, L = 2) on a
# short grid around T = 3 T2 = 0.3 s, with fewer restarts and a fixed budget.
SEARCH_1Q = (
    Call("search-1q", "parallel-dephasing-1q", ("standard", "control_enhanced"),
         (("gamma", 10.0),), (0.25, 0.35, 3, "linear"),
         restarts=2, max_evals=250),
)

# The same search on two qubits: L = 4 (n = 80), GHZ probe, 16x16 generators.
# One start (the zero schedule): with a random second start the gain over
# standard ranged from 15.8x to 24x between seeds, and the cost by about 10%.
SEARCH_2Q = (
    Call("search-2q", "parallel-dephasing-2q", ("standard", "control_enhanced"),
         (("gamma1", 10.0), ("gamma2", 10.0)), (0.25, 0.35, 3, "linear"),
         restarts=1, max_evals=300),
)

# The fixed-schedule schemes of the five `run` presets on dense grids, with
# gnuplot files: the validated reported path only, no control search.
SWEEP = (
    Call("amplitude-damping", "amplitude-damping", ("standard", "ancilla"),
         (("gamma_minus", 0.2), ("gamma_plus", 0.0)), (0.5, 40.0, 100, "linear"),
         plot_data=True),
    Call("parallel-dephasing-1q", "parallel-dephasing-1q", ("standard", "ancilla"),
         (("gamma", 10.0),), (0.01, 0.5, 100, "log"), plot_data=True),
    Call("parallel-dephasing-2q", "parallel-dephasing-2q", ("standard",),
         (("gamma1", 10.0), ("gamma2", 10.0)), (0.01, 0.5, 100, "log"),
         plot_data=True),
    Call("transverse-dephasing-fast", "transverse-dephasing",
         ("standard", "ancilla", "theoretical_optimal"),
         (("gamma", 10.0),), (0.02, 0.4, 100, "linear"), plot_data=True),
    Call("transverse-dephasing-slow", "transverse-dephasing",
         ("standard", "ancilla", "theoretical_optimal"),
         (("gamma", 0.1),), (0.4, 40.0, 100, "log"), plot_data=True),
)

WORKLOADS = {"search-1q": SEARCH_1Q, "search-2q": SEARCH_2Q, "sweep": SWEEP}


def warmup_calls(calls) -> tuple:
    """One-point, small-budget versions of ``calls`` that load every code path."""
    return tuple(Call(c.name + ".warmup", c.scenario, c.schemes, c.rates,
                      (c.grid[0], c.grid[1], 1, c.grid[3]), c.K, 1,
                      50 if "control_enhanced" in c.schemes else 0, c.plot_data,
                      c.omega0)
                 for c in calls)
