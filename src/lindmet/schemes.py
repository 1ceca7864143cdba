"""The four metrology strategies, run by one loop over the time grid.

Each scheme maps a time grid to per-time records of QFI, sensitivity and the
schedule that produced them. :func:`prepare` builds the dynamics and probe
once per run; :func:`run_scheme` then takes the checked QFI of the scheme's
fixed schedule at every T, the whole grid in one kernel call, and only then
runs the control search, every T's starts in lockstep, which replaces it:

  standard             fixed probe (|+> or GHZ), zero schedule
  ancilla              Bell probe on system + noiseless ancilla, zero schedule
  theoretical_optimal  constant u_z = -omega0 drift cancellation
                       (transverse dephasing only)
  control_enhanced     zero schedule, then a per-T multi-start simplex search
                       over the K x L grid, started from it
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import EncodingModel, ancilla_extend, build_scenario
from .liouville import unvectorize, vectorize
from .metrology import MetrologyError, drho_domega, qfi_eigen, sensitivity
from .optimizer import OptimizerOptions, multi_start
from .propagation import ControlSchedule, PreparedProbe, SlicedDynamics

SCHEMES = ("standard", "ancilla", "theoretical_optimal", "control_enhanced")
PROBES = ("default", "plus", "ghz", "bell_with_ancilla", "random_seeded")


# The most amplitude grids the search objective propagates in one kernel
# call. A search round holds a batch of points from every start at every
# encoding time, and the first, every start's initial simplex, is 24,600
# grids on the parallel-dephasing-1q preset: as one call, its generators
# and propagators took that run's peak RSS (at max_evals = 100) from 64 to
# 563 MB. Calls of 128 grids keep it at 64 MB, and already share nearly all
# of a call's fixed cost.
ROUND_GRIDS = 128


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
        if not math.isfinite(2.0 * self.resolved_u_max):
            # the search box [-u_max, u_max] must have a finite width
            raise ValueError("u_max must be below half the largest float, "
                             f"got {self.resolved_u_max}")
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


def _schedule_qfi(dyn: SlicedDynamics, schedules: list[ControlSchedule],
                  rho0: np.ndarray) -> np.ndarray:
    """Checked QFIs of the frequency after each of ``schedules``, N of one
    K x L shape, acts on ``rho0``, from one kernel call, each bit for bit
    its own call's. A failure names the encoding time of the first schedule
    that breaks (see :func:`drho_domega`) or whose QFI overflows
    (:class:`MetrologyError`).
    """
    qfi = qfi_eigen(*drho_domega(dyn, schedules, rho0))
    bad = np.flatnonzero(~np.isfinite(qfi))
    if bad.size:
        raise MetrologyError(f"at T={schedules[bad[0]].total_time:g} s: "
                             "the QFI is not a finite float")
    return qfi


def _objective(probe: PreparedProbe, K: int, L: int, times):
    """The search objective on ``probe`` for the encoding times whose slice
    lengths are ``probe``'s at indexes ``times``, one problem each: an
    (N, K*L) stack of flat K x L amplitude grids, which must be finite, and
    the problem of each row, an index into ``times`` or N of them (default
    the first), to the N values minus their unchecked QFIs, from one kernel
    call per :data:`ROUND_GRIDS` grids; a flat grid alone gives one value. A
    NaN state, as from a generator that overflows, and a QFI that is not
    finite score 0."""
    times = np.asarray(times)

    def objective(x, problem=0):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != K * L:
            raise ValueError(f"points must be flat K x L = {K * L} amplitude grids, "
                             f"got shape {x.shape}")
        amps = x.reshape(-1, K, L)
        if not np.isfinite(amps).all():
            raise ValueError("control amplitudes must be finite")
        at = times[problem]
        if not at.ndim:  # one index for every grid
            at = np.full(len(amps), at)
        parts = []
        for c in range(0, len(amps), ROUND_GRIDS):
            v, dv = probe.propagate(amps[c:c + ROUND_GRIDS], at[c:c + ROUND_GRIDS])
            parts.append(qfi_eigen(unvectorize(v), unvectorize(dv)))
        qfi = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # a NaN state has no pairs to sum, so it scores -0.0; a NaN among the
        # QFIs makes their maximum NaN too
        if not np.maximum.reduce(qfi) < math.inf:
            qfi = np.where(qfi < math.inf, qfi, -0.0)
        return -qfi if x.ndim > 1 else -qfi[0]
    return objective


def _spawned_seeds(master_seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(master_seed).spawn(count + 1)
    return [int(c.generate_state(1)[0]) for c in children]


def prepare(config: SchemeConfig) -> tuple[SlicedDynamics, np.ndarray]:
    """The dynamics and the probe state a run of ``config`` starts from.

    The ancilla scheme evolves its probe on the system tensor a noiseless
    ancilla; every other scheme on the scenario's own register.
    """
    model = config.build_model()
    if config.scheme == "ancilla":
        model = ancilla_extend(model)
    return SlicedDynamics(model), resolve_probe(config, model.dim)


def run_scheme(config: SchemeConfig) -> list[MetrologyResult]:
    """QFI and sensitivity of ``config.scheme`` at each encoding time.

    The scheme's fixed schedule is evaluated first, checked, at every T of
    the grid: all zeros, or for ``theoretical_optimal`` a constant
    u_z = -omega0 that cancels the drift exactly, the known long-time optimum
    for transverse dephasing at small noise rates. That QFI stays nonzero
    because the frequency derivative probes the cancelled drift's dependence
    on omega0. The whole grid goes through the kernel in one call, a constant
    schedule being one exponential per T, and each QFI is bit for bit its own
    call's; then comes its sensitivity at every T, which must be finite for a
    positive QFI (see :func:`sensitivity`).

    ``control_enhanced`` then replaces the zero schedule by a multi-start
    simplex maximization of the QFI over the K x L amplitude grid at each T,
    each T with its own seed. The starts of every T advance in lockstep on
    one probe prepared for the whole grid: each round's points, at every T,
    are one objective call, in kernel calls of at most :data:`ROUND_GRIDS`
    grids, and each start's search is bit for bit the one it would run
    alone. The zero schedule is always among the starts, so the optimized
    QFI cannot fall below the same-probe uncontrolled value, and because
    every T was checked first, a grid point whose checks must fail stops the
    run before any search spends its budget. With ``warm_start`` the
    previous grid point's best schedule joins the starts as well, so the T's
    are searched one after another, each T's starts in lockstep; faster on
    dense grids, but it can change which local optimum each point settles
    in. Every T's best schedule is then scored, checked, in one kernel call.
    """
    dyn, rho0 = prepare(config)
    K, L = config.K, dyn.model.n_controls
    amplitude = -config.omega0 if config.scheme == "theoretical_optimal" else 0.0
    amps = np.full((K, L), amplitude)
    fixed = [ControlSchedule(amps, T) for T in config.time_grid]
    qfis = _schedule_qfi(dyn, fixed, rho0).tolist()
    sensitivities = [sensitivity(q, T, config.gamma_c) for q, T in zip(qfis, config.time_grid)]
    if config.scheme != "control_enhanced":
        return [MetrologyResult(T, qfi, sens, sched, 0, config.optimizer.seed, True)
                for T, sched, qfi, sens in zip(config.time_grid, fixed, qfis, sensitivities)]

    u_max = config.resolved_u_max
    seeds = _spawned_seeds(config.optimizer.seed, len(config.time_grid))
    options = [replace(config.optimizer, seed=seed) for seed in seeds[1:]]
    probe = dyn.prepare(vectorize(rho0), [sched.dt for sched in fixed])
    box = np.full(K * L, -u_max), np.full(K * L, u_max)
    # every T's starts in one lockstep search; with warm_start a T's extra
    # start is the best of the T before it, so the T's go one at a time
    times = range(len(fixed))
    found = []
    for group in ([[i] for i in times] if config.warm_start else [list(times)]):
        extra = [[found[-1].x]] if config.warm_start and found else ()
        found += multi_start(_objective(probe, K, L, group), *box,
                             [options[i] for i in group], extra)
    best = [ControlSchedule(res.x.reshape(K, L), T, u_max=u_max)
            for T, res in zip(config.time_grid, found)]
    qfis = _schedule_qfi(dyn, best, rho0).tolist()
    return [MetrologyResult(T, qfi, sensitivity(qfi, T, config.gamma_c), sched,
                            res.evals, config.optimizer.seed, res.converged)
            for T, sched, qfi, res in zip(config.time_grid, best, qfis, found)]
