"""Noise channels and encoding models for qubit frequency estimation.

Each scenario pairs a drift sigma_z/2-type frequency generator with a noise
channel and a fixed set of control Hamiltonians:

  parallel-dephasing-1q   sigma_z noise, transverse controls {sx/2, sy/2}
  parallel-dephasing-2q   per-qubit sigma_z noise, per-qubit transverse controls
  transverse-dephasing    sigma_x noise, longitudinal control {sz/2}
  amplitude-damping       sigma_-/sigma_+ noise, transverse controls
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Coherence time from the spectral width at half height: T2 = 1/(pi*linewidth)."""
    if not 0 < linewidth_hz < math.inf:
        raise ValueError(f"linewidth must be positive and finite, got {linewidth_hz}")
    return 1.0 / (math.pi * linewidth_hz)


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


@dataclass(frozen=True)
class EncodingModel:
    """Drift generator, control Hamiltonians and noise channel of one scenario.

    The drift is linear in the estimated frequency: H0(omega0) = omega0 * G,
    with G stored explicitly so that ancilla extension can redefine it.
    """

    n_qubits: int
    omega0: float
    generator: np.ndarray
    control_hams: tuple
    channel: NoiseChannel

    def __post_init__(self):
        controls = tuple(np.asarray(H, dtype=complex) for H in self.control_hams)
        G = np.asarray(self.generator, dtype=complex)
        d = G.shape[0]
        for H in controls + (G,):
            if np.max(np.abs(H - H.conj().T)) > 1e-12:
                raise ValueError("drift generator and control Hamiltonians must be Hermitian")
            if H.shape != (d, d):
                raise ValueError("inconsistent operator dimensions in model")
        if self.channel.dim is not None and self.channel.dim != d:
            raise ValueError("noise channel dimension does not match Hamiltonians")
        object.__setattr__(self, "generator", G)
        object.__setattr__(self, "control_hams", controls)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @property
    def n_controls(self) -> int:
        return len(self.control_hams)


def ancilla_extend(model: EncodingModel) -> EncodingModel:
    """Extend a 1-qubit model with a noiseless, drift-free ancilla.

    Every operator acts as (original kron I); the ancilla is the second tensor
    factor.
    """
    if model.dim != 2:
        raise ValueError("only 1-qubit models can be ancilla-extended")

    def ext(op):
        return np.kron(op, IDENTITY_2)

    return EncodingModel(
        n_qubits=2,
        omega0=model.omega0,
        generator=ext(model.generator),
        control_hams=tuple(ext(H) for H in model.control_hams),
        channel=NoiseChannel(tuple(ext(L) for L in model.channel.lindblad_ops),
                             model.channel.rates),
    )


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
        channel = two_qubit_uncorrelated_dephasing(resolved["gamma1"], resolved["gamma2"])
        controls = tuple(
            np.kron(P, IDENTITY_2) / 2.0 for P in (SIGMA_X, SIGMA_Y)
        ) + tuple(
            np.kron(IDENTITY_2, P) / 2.0 for P in (SIGMA_X, SIGMA_Y)
        )
        return EncodingModel(2, omega0, frequency_generator(2), controls, channel)
    if name == "transverse-dephasing":
        channel = transverse_dephasing(resolved["gamma"])
        return EncodingModel(1, omega0, frequency_generator(1), (SIGMA_Z / 2.0,), channel)
    channel = amplitude_damping(resolved["gamma_minus"], resolved["gamma_plus"])
    return EncodingModel(1, omega0, frequency_generator(1), transverse_1q, channel)
