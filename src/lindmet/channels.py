"""Noise channels and encoding models for qubit frequency estimation.

Each scenario pairs a drift sigma_z/2-type frequency generator with a noise
channel and a fixed set of control Hamiltonians:

  parallel-dephasing-1q   sigma_z noise, transverse controls {sx/2, sy/2}
  parallel-dephasing-2q   per-qubit sigma_z noise, per-qubit transverse controls
  transverse-dephasing    sigma_x noise, longitudinal control {sz/2}
  amplitude-damping       sigma_-/sigma_+ noise, transverse controls

A model is a register of one-qubit sites, each with its own share of the
drift, its own controls and its own noise (:class:`Site`); the two-qubit
scenario has two, and the ancilla extension adds an idle one. Their sum,
with every site operator embedded as I (x) op (x) I, is the model's
full-register generator, controls and channel. The dynamics propagate the
sites separately (see :mod:`lindmet.propagation`), so noise that correlates
two qubits cannot be expressed.
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


def two_qubit_uncorrelated_dephasing(gamma1: float, gamma2: float) -> NoiseChannel:
    """Independent sigma_z/sqrt(2) dephasing on each of two qubits."""
    gamma1 = _require_rate(gamma1, "gamma1")
    gamma2 = _require_rate(gamma2, "gamma2")
    return NoiseChannel(
        (np.kron(SIGMA_Z, IDENTITY_2) / np.sqrt(2.0),
         np.kron(IDENTITY_2, SIGMA_Z) / np.sqrt(2.0)),
        (gamma1, gamma2),
    )


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


def frequency_generator(n_qubits: int) -> np.ndarray:
    """Generator G with drift H0(omega0) = omega0 * G = sum_n omega0 sigma_z^(n)/2."""
    if n_qubits == 1:
        return SIGMA_Z / 2.0
    if n_qubits == 2:
        return (np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)) / 2.0
    raise ValueError(f"unsupported qubit count {n_qubits} (expected 1 or 2)")


def _checked_operators(generator, control_hams, channel):
    """The generator and controls as complex arrays, checked to be Hermitian
    and of one dimension with the channel."""
    controls = tuple(np.asarray(H, dtype=complex) for H in control_hams)
    G = np.asarray(generator, dtype=complex)
    d = G.shape[0]
    for H in controls + (G,):
        if np.max(np.abs(H - H.conj().T)) > 1e-12:
            raise ValueError("drift generator and control Hamiltonians must be Hermitian")
        if H.shape != (d, d):
            raise ValueError("inconsistent operator dimensions in model")
    if channel.dim is not None and channel.dim != d:
        raise ValueError("noise channel dimension does not match Hamiltonians")
    return G, controls


@dataclass(frozen=True)
class Site:
    """One qubit of a register: its share G of the drift generator, its
    control Hamiltonians and its noise channel, all 2x2. A site with none of
    them, such as an ancilla, is idle."""

    generator: np.ndarray
    control_hams: tuple = ()
    channel: NoiseChannel = field(default_factory=lambda: NoiseChannel((), ()))

    def __post_init__(self):
        G, controls = _checked_operators(self.generator, self.control_hams, self.channel)
        if G.shape != (2, 2):
            raise ValueError(f"a site is one qubit, got a {G.shape} generator")
        object.__setattr__(self, "generator", G)
        object.__setattr__(self, "control_hams", controls)


def _embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """A one-qubit operator on ``site`` of ``n_sites``: I (x) op (x) I."""
    return functools.reduce(np.kron, [op if s == site else IDENTITY_2 for s in range(n_sites)])


@dataclass(frozen=True)
class EncodingModel:
    """Drift generator, control Hamiltonians and noise channel of one scenario.

    The drift is linear in the estimated frequency: H0(omega0) = omega0 * G.
    ``generator``, ``control_hams`` and ``channel`` act on the whole
    register; ``sites`` holds the same model one qubit at a time. A
    one-qubit model is given by its operators and is its own single site; a
    larger register is given by its sites (see :meth:`from_sites`), and its
    operators are their sum, each site operator embedded as I (x) op (x) I.
    """

    n_qubits: int
    omega0: float
    generator: np.ndarray | None
    control_hams: tuple
    channel: NoiseChannel | None
    sites: tuple = ()

    def __post_init__(self):
        sites = tuple(self.sites)
        if sites:
            if self.generator is not None or self.control_hams or self.channel is not None:
                raise ValueError("a model is given by its sites or by its operators, not both")
            G, controls, channel = _register(sites)
        else:
            G, controls = _checked_operators(self.generator, self.control_hams, self.channel)
            if G.shape != (2, 2):
                raise ValueError("a model of more than one qubit is built from its sites")
            channel = self.channel
            sites = (Site(G, controls, channel),)
        if self.n_qubits != len(sites):
            raise ValueError(f"{len(sites)} sites do not make {self.n_qubits} qubits")
        object.__setattr__(self, "generator", G)
        object.__setattr__(self, "control_hams", controls)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "sites", sites)

    @classmethod
    def from_sites(cls, omega0: float, sites) -> "EncodingModel":
        """The model of a register of ``sites``, site 0 the first tensor
        factor, with the controls of every site in site order."""
        sites = tuple(sites)
        return cls(len(sites), omega0, None, (), None, sites)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @property
    def n_controls(self) -> int:
        return len(self.control_hams)


def _register(sites):
    """The full-register generator, controls and channel of ``sites``."""
    n = len(sites)
    return (sum(_embed(s.generator, i, n) for i, s in enumerate(sites)),
            tuple(_embed(H, i, n) for i, s in enumerate(sites) for H in s.control_hams),
            NoiseChannel(tuple(_embed(L, i, n) for i, s in enumerate(sites)
                               for L in s.channel.lindblad_ops),
                         tuple(g for s in sites for g in s.channel.rates)))


def ancilla_extend(model: EncodingModel) -> EncodingModel:
    """Extend a 1-qubit model with a noiseless, drift-free ancilla: an idle
    second site, so every operator acts as (original kron I)."""
    if model.dim != 2:
        raise ValueError("only 1-qubit models can be ancilla-extended")
    return EncodingModel.from_sites(model.omega0, model.sites + (Site(np.zeros((2, 2))),))


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

    transverse_1q = (SIGMA_X / 2.0, SIGMA_Y / 2.0)
    if name == "parallel-dephasing-1q":
        channel = parallel_dephasing(resolved["gamma"])
        return EncodingModel(1, omega0, frequency_generator(1), transverse_1q, channel)
    if name == "parallel-dephasing-2q":
        # uncorrelated: each qubit dephases at its own rate
        return EncodingModel.from_sites(omega0, (
            Site(frequency_generator(1), transverse_1q,
                 NoiseChannel((SIGMA_Z / np.sqrt(2.0),), (_require_rate(resolved[key], key),)))
            for key in ("gamma1", "gamma2")))
    if name == "transverse-dephasing":
        channel = transverse_dephasing(resolved["gamma"])
        return EncodingModel(1, omega0, frequency_generator(1), (SIGMA_Z / 2.0,), channel)
    channel = amplitude_damping(resolved["gamma_minus"], resolved["gamma_plus"])
    return EncodingModel(1, omega0, frequency_generator(1), transverse_1q, channel)
