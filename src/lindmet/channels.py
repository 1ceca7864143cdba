"""Noise channels and encoding models for qubit frequency estimation.

Each scenario pairs a drift sigma_z/2-type frequency generator with a noise
channel and a fixed set of control Hamiltonians:

  parallel-dephasing-1q   sigma_z noise, transverse controls {sx/2, sy/2}
  parallel-dephasing-2q   per-qubit sigma_z noise, per-qubit transverse controls
  transverse-dephasing    sigma_x noise, longitudinal control {sz/2}
  amplitude-damping       sigma_-/sigma_+ noise, transverse controls

Every model is a register of one-qubit sites, each with its own share of
the drift, its own controls and its own noise (:class:`Site`): a one-qubit
scenario is one site, the two-qubit scenario two, and the ancilla extension
adds an idle second site to a one-qubit model. :class:`EncodingModel` is
built from its sites only. Its full-register generator, controls and
channel, the sum of the sites' with every site operator embedded as
I (x) op (x) I, are derived from them for reference. The dynamics propagate
the sites separately (see :mod:`lindmet.propagation`), so noise that
correlates two qubits cannot be expressed.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .liouville import NoiseChannel

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Lowering operator maps |1> to |0| (|0> is the stationary state of pure decay).
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

SCENARIOS = (
    "parallel-dephasing-1q",
    "parallel-dephasing-2q",
    "transverse-dephasing",
    "amplitude-damping",
)


def _require_rate(value: float, name: str) -> float:
    value = float(value)
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
    return value


def t2_from_linewidth(linewidth_hz: float) -> float:
    """Coherence time from the spectral width at half height: T2 = 1/(pi*linewidth).

    T2 and the dephasing rate 1/T2 must both be positive, finite, normal
    floats: a linewidth near either end of the float range would make one
    of them overflow to inf or underflow to 0 (or lose precision)."""
    if not 0 < linewidth_hz < math.inf:
        raise ValueError(f"linewidth must be positive and finite, got {linewidth_hz}")
    t2 = 1.0 / (math.pi * linewidth_hz)
    if not (sys.float_info.min <= t2 < math.inf and sys.float_info.min <= 1.0 / t2 < math.inf):
        raise ValueError(f"linewidth {linewidth_hz} Hz gives T2 = {t2} s; T2 and 1/T2 must "
                         "be positive, finite, normal floats")
    return t2


def parallel_dephasing(gamma: float) -> NoiseChannel:
    """Dephasing along the encoding axis: L = sigma_z/sqrt(2) at rate gamma = 1/T2."""
    gamma = _require_rate(gamma, "gamma")
    return NoiseChannel((SIGMA_Z / np.sqrt(2.0),), (gamma,))


def transverse_dephasing(gamma: float) -> NoiseChannel:
    """Dephasing perpendicular to the encoding axis: L = sigma_x/sqrt(2)."""
    gamma = _require_rate(gamma, "gamma")
    return NoiseChannel((SIGMA_X / np.sqrt(2.0),), (gamma,))


def amplitude_damping(gamma_minus: float, gamma_plus: float = 0.0) -> NoiseChannel:
    """Generalized amplitude damping with decay rate gamma_minus toward |0>
    and excitation rate gamma_plus (zero at zero temperature)."""
    gamma_minus = _require_rate(gamma_minus, "gamma_minus")
    gamma_plus = _require_rate(gamma_plus, "gamma_plus")
    return NoiseChannel((SIGMA_MINUS, SIGMA_PLUS), (gamma_minus, gamma_plus))


def _qubit_operator(op, what: str) -> np.ndarray:
    """``op`` as a complex 2x2 array, checked to be finite and Hermitian."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"a site is one qubit, got a {op.shape} {what}")
    if not (np.isfinite(op).all() and np.max(np.abs(op - op.conj().T)) <= 1e-12):
        raise ValueError(f"{what} must be finite and Hermitian")
    return op


@dataclass(frozen=True)
class Site:
    """One qubit of a register: its share G of the drift generator, its
    control Hamiltonians and its noise channel, all 2x2. A site with none of
    them, such as an ancilla, is idle."""

    generator: np.ndarray
    control_hams: tuple = ()
    channel: NoiseChannel = field(default_factory=lambda: NoiseChannel((), ()))

    def __post_init__(self):
        G = _qubit_operator(self.generator, "drift generator")
        controls = tuple(_qubit_operator(H, "control Hamiltonian") for H in self.control_hams)
        if self.channel.dim not in (None, 2):
            raise ValueError("noise channel dimension does not match Hamiltonians")
        object.__setattr__(self, "generator", G)
        object.__setattr__(self, "control_hams", controls)


def _embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """A one-qubit operator on ``site`` of ``n_sites``: I (x) op (x) I."""
    return functools.reduce(np.kron, [op if s == site else IDENTITY_2 for s in range(n_sites)])


@dataclass(frozen=True)
class EncodingModel:
    """A register of one or two one-qubit sites (:class:`Site`) at frequency omega0.

    The drift is linear in the estimated frequency: H0(omega0) = omega0 * G.
    Site 0 is the first tensor factor, and the controls are every site's in
    site order. ``generator``, ``control_hams`` and ``channel`` are the
    whole register's, the sum of the sites' with each site operator embedded
    as I (x) op (x) I, built on first use: the dynamics propagate the sites,
    and these serve as the full-register reference.
    """

    omega0: float
    sites: tuple

    def __post_init__(self):
        if not math.isfinite(self.omega0):
            raise ValueError(f"omega0 must be finite, got {self.omega0}")
        sites = tuple(self.sites)
        if len(sites) not in (1, 2):
            raise ValueError(f"a register has one site or two, got {len(sites)}")
        object.__setattr__(self, "sites", sites)

    @property
    def n_qubits(self) -> int:
        return len(self.sites)

    @property
    def dim(self) -> int:
        return 2 ** len(self.sites)

    @property
    def n_controls(self) -> int:
        return sum(len(s.control_hams) for s in self.sites)

    @functools.cached_property
    def generator(self) -> np.ndarray:
        return sum(_embed(s.generator, i, self.n_qubits) for i, s in enumerate(self.sites))

    @functools.cached_property
    def control_hams(self) -> tuple:
        return tuple(_embed(H, i, self.n_qubits)
                     for i, s in enumerate(self.sites) for H in s.control_hams)

    @functools.cached_property
    def channel(self) -> NoiseChannel:
        return NoiseChannel(tuple(_embed(L, i, self.n_qubits) for i, s in enumerate(self.sites)
                                  for L in s.channel.lindblad_ops),
                            tuple(g for s in self.sites for g in s.channel.rates))


def ancilla_extend(model: EncodingModel) -> EncodingModel:
    """Extend a 1-qubit model with a noiseless, drift-free ancilla: an idle
    second site, so every operator acts as (original kron I)."""
    if model.dim != 2:
        raise ValueError("only 1-qubit models can be ancilla-extended")
    return EncodingModel(model.omega0, model.sites + (Site(np.zeros((2, 2))),))


# Reference operating points for each scenario (rates in 1/s).
DEFAULT_RATES = {
    "parallel-dephasing-1q": {"gamma": 10.0},
    "parallel-dephasing-2q": {"gamma1": 10.0, "gamma2": 10.0},
    "transverse-dephasing": {"gamma": 0.1},
    "amplitude-damping": {"gamma_minus": 0.2, "gamma_plus": 0.0},
}


def build_scenario(name: str, omega0: float, rates: dict | None = None) -> EncodingModel:
    """Construct the encoding model for a named scenario.

    ``rates`` overrides any subset of the scenario's default rates; unknown
    keys are rejected.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; valid scenarios: {', '.join(SCENARIOS)}")
    resolved = dict(DEFAULT_RATES[name])
    for key, value in (rates or {}).items():
        if key not in resolved:
            raise ValueError(f"scenario {name!r} does not accept rate {key!r}; "
                             f"expected one of {sorted(resolved)}")
        resolved[key] = float(value)

    G, transverse = SIGMA_Z / 2.0, (SIGMA_X / 2.0, SIGMA_Y / 2.0)
    if name == "parallel-dephasing-2q":
        # uncorrelated: each qubit dephases at its own rate
        sites = [Site(G, transverse, NoiseChannel((SIGMA_Z / np.sqrt(2.0),),
                                                  (_require_rate(resolved[key], key),)))
                 for key in ("gamma1", "gamma2")]
    elif name == "parallel-dephasing-1q":
        sites = [Site(G, transverse, parallel_dephasing(resolved["gamma"]))]
    elif name == "transverse-dephasing":
        sites = [Site(G, (SIGMA_Z / 2.0,), transverse_dephasing(resolved["gamma"]))]
    else:
        sites = [Site(G, transverse,
                      amplitude_damping(resolved["gamma_minus"], resolved["gamma_plus"]))]
    return EncodingModel(omega0, sites)
