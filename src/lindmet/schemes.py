"""The four metrology strategies as runnable pipelines.

Each scheme maps a time grid to per-time records of QFI, sensitivity and the
schedule that produced them:

  standard             fixed probe (|+> or GHZ), no controls
  ancilla              Bell probe on system + noiseless ancilla, no controls
  theoretical_optimal  constant u_z = -omega0 drift cancellation
                       (transverse dephasing only)
  control_enhanced     per-T multi-start simplex search over the K x L grid
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import EncodingModel, ancilla_extend, build_scenario
from .metrology import drho_domega, qfi_eigen, sensitivity
from .optimizer import OptimizerOptions, multi_start
from .propagation import ControlSchedule, SlicedDynamics

SCHEMES = ("standard", "ancilla", "theoretical_optimal", "control_enhanced")
PROBES = ("default", "plus", "ghz", "bell_with_ancilla", "random_seeded")


def default_u_max(omega0: float) -> float:
    """Control amplitude bound used when none is configured."""
    return 20.0 * max(abs(omega0), 1.0)


@dataclass(frozen=True)
class SchemeConfig:
    """Everything needed to run one scheme over a time grid."""

    scheme: str
    scenario: str
    time_grid: tuple
    omega0: float = 2.0 * np.pi
    rates: tuple = ()  # ((name, value), ...) overrides of the scenario defaults
    K: int = 20
    probe: str = "default"
    u_max: float | None = None  # None resolves to default_u_max(omega0)
    gamma_c: float = 1.0
    warm_start: bool = False  # seed each T's search with the previous best
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; valid schemes: {', '.join(SCHEMES)}")
        if self.probe not in PROBES:
            raise ValueError(f"unknown probe {self.probe!r}; valid probes: {', '.join(PROBES)}")
        grid = tuple(float(t) for t in self.time_grid)
        if not grid or not all(0 < t < math.inf for t in grid):
            raise ValueError("time grid must be non-empty with positive finite times")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("time grid must be strictly increasing")
        if self.K < 1:
            raise ValueError("slice count K must be positive")
        if not math.isfinite(self.omega0):
            raise ValueError(f"omega0 must be finite, got {self.omega0}")
        for name in ("u_max", "gamma_c"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        n_qubits = self.build_model().n_qubits
        if self.scheme == "ancilla":
            if n_qubits != 1:
                raise ValueError("the ancilla-assisted scheme supports 1-qubit scenarios only")
            n_qubits = 2
        _probe_tag(self, n_qubits)
        if self.scheme == "theoretical_optimal" and self.scenario != "transverse-dephasing":
            raise ValueError("the theoretical-optimal control law applies to "
                             "the transverse-dephasing scenario only")
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "rates", tuple(self.rates))

    @property
    def resolved_u_max(self) -> float:
        return self.u_max if self.u_max is not None else default_u_max(self.omega0)

    def build_model(self) -> EncodingModel:
        return build_scenario(self.scenario, self.omega0, dict(self.rates))


@dataclass(frozen=True)
class MetrologyResult:
    """QFI and sensitivity of one scheme at one encoding time."""

    T: float
    qfi: float
    sensitivity: float
    schedule: ControlSchedule
    evaluations: int
    seed: int
    converged: bool
    qfi_fidelity: float | None = None

    def __post_init__(self):
        if not self.qfi >= 0:
            raise ValueError(f"QFI must be non-negative, got {self.qfi}")
        if abs(self.schedule.total_time - self.T) > 1e-12 * max(self.T, 1.0):
            raise ValueError("schedule duration does not match the record's T")


def plus_state(n_qubits: int) -> np.ndarray:
    """|+>^n density matrix."""
    d = 2 ** n_qubits
    return np.full((d, d), 1.0 / d, dtype=complex)


def ghz_state(n_qubits: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) density matrix."""
    d = 2 ** n_qubits
    psi = np.zeros(d, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def haar_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state density matrix."""
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _probe_tag(config: SchemeConfig, n_qubits: int) -> str:
    """The probe ``config`` starts from on ``n_qubits`` qubits (system plus
    any ancilla); ValueError when the tag does not fit that register."""
    tag = config.probe
    if tag == "default":
        tag = "bell_with_ancilla" if config.scheme == "ancilla" else (
            "plus" if n_qubits == 1 else "ghz")
    if tag == "ghz" and n_qubits < 2:
        raise ValueError("GHZ probe requires at least two qubits")
    if tag == "bell_with_ancilla" and n_qubits != 2:
        raise ValueError("Bell probe applies to the system+ancilla pair")
    return tag


def resolve_probe(config: SchemeConfig, dim: int) -> np.ndarray:
    """Initial state for a scheme run, derived deterministically from the config.

    The ``default`` tag maps to |+> (one qubit) or GHZ (two), and to the Bell
    pair for the ancilla scheme; ``random_seeded`` draws a Haar-random pure
    state from the master seed.
    """
    n = int(round(np.log2(dim)))
    tag = _probe_tag(config, n)
    if tag == "plus":
        return plus_state(n)
    if tag in ("ghz", "bell_with_ancilla"):
        return ghz_state(n)
    rng = np.random.default_rng(_spawned_seeds(config.optimizer.seed, 0)[0])
    return haar_random_state(dim, rng)


def _schedule_qfi(dyn: SlicedDynamics, schedule: ControlSchedule, rho0: np.ndarray,
                  checked: bool = True) -> float:
    """QFI of the frequency after ``schedule`` acts on ``rho0``.

    The control search calls this unchecked, once per objective evaluation;
    reported values are checked (see :func:`drho_domega`). A numerical
    failure is re-raised with the encoding time attached so the harness can
    report which grid point broke.
    """
    try:
        rho, drho = drho_domega(dyn, schedule, rho0, checked=checked)
    except RuntimeError as exc:
        raise type(exc)(f"at T={schedule.total_time:g} s: {exc}") from exc
    return qfi_eigen(rho, drho)


def _spawned_seeds(master_seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(master_seed).spawn(count + 1)
    return [int(c.generate_state(1)[0]) for c in children]


def run_fixed_schedule(config: SchemeConfig) -> list[MetrologyResult]:
    """Uncontrolled encoding, or the constant u_z = -omega0 drift cancellation.

    ``standard`` evolves the fixed probe freely, ``ancilla`` evolves a Bell
    probe on the system tensor a noiseless ancilla, and ``theoretical_optimal``
    holds u_z = -omega0, cancelling the drift exactly: the known long-time
    optimum for transverse dephasing at small noise rates. Its QFI stays
    nonzero because the frequency derivative probes the cancelled drift's
    dependence on omega0.
    """
    model = config.build_model()
    if config.scheme == "ancilla":
        model = ancilla_extend(model)
    dyn = SlicedDynamics(model)
    rho0 = resolve_probe(config, model.dim)
    amplitude = -config.omega0 if config.scheme == "theoretical_optimal" else 0.0
    out = []
    for T in config.time_grid:
        sched = ControlSchedule(np.full((config.K, model.n_controls), amplitude), T)
        qfi = _schedule_qfi(dyn, sched, rho0)
        out.append(MetrologyResult(T, qfi, sensitivity(qfi, T, config.gamma_c),
                                   sched, 0, config.optimizer.seed, True))
    return out


def run_control_enhanced(config: SchemeConfig) -> list[MetrologyResult]:
    """Per-T simplex maximization of the QFI over the K x L amplitude grid.

    The zero schedule is always among the starts, so the optimized QFI cannot
    fall below the same-probe uncontrolled value. Its QFI is taken checked
    before each search, so a grid point whose checks must fail stops at once
    instead of after the search's budget. With ``warm_start`` the
    previous grid point's best schedule joins the starts as well; faster on
    dense grids, but it can change which local optimum each point settles in.
    """
    model = config.build_model()
    dyn = SlicedDynamics(model)
    rho0 = resolve_probe(config, model.dim)
    u_max = config.resolved_u_max
    K, L = config.K, model.n_controls
    seeds = _spawned_seeds(config.optimizer.seed, len(config.time_grid))
    out = []
    previous_best = None
    for i, T in enumerate(config.time_grid):
        def objective(x, T=T):
            sched = ControlSchedule(x.reshape(K, L), T)
            return -_schedule_qfi(dyn, sched, rho0, checked=False)

        _schedule_qfi(dyn, ControlSchedule.zero(K, L, T), rho0)
        opts = replace(config.optimizer, seed=seeds[i + 1])
        extra = (previous_best,) if config.warm_start and previous_best is not None else ()
        res = multi_start(objective, np.full(K * L, -u_max), np.full(K * L, u_max),
                          opts, extra_starts=extra)
        best = ControlSchedule(res.x.reshape(K, L), T, u_max=u_max)
        qfi = _schedule_qfi(dyn, best, rho0)
        out.append(MetrologyResult(T, qfi, sensitivity(qfi, T, config.gamma_c),
                                   best, res.evals, config.optimizer.seed, res.converged))
        previous_best = res.x
    return out


def run_scheme(config: SchemeConfig) -> list[MetrologyResult]:
    """Dispatch on config.scheme."""
    if config.scheme == "control_enhanced":
        return run_control_enhanced(config)
    return run_fixed_schedule(config)
