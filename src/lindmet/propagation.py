"""Piecewise-constant controlled evolution of vectorized states.

The encoding time T is divided into K slices; slice k evolves under
exp(L[k] dt) with L[k] built from H[k] = omega0*G + sum_l u_l[k] H_l and the
model's noise channel. The slices run in lindmet._kern: the compiled kernel
when it is built, otherwise the Python kernel, which exponentiates all K
slice generators in one stacked scipy call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kern
from .channels import EncodingModel
from .liouville import dissipator_superop, hamiltonian_superop, unvectorize, vectorize

# Physicality tolerances checked after propagation (looser than the
# construction-time tolerances: K matrix exponentials accumulate roundoff).
EVOLVED_TRACE_TOL = 1e-10
EVOLVED_HERMITICITY_TOL = 1e-10
EVOLVED_POSITIVITY_TOL = 1e-10


class PropagationError(RuntimeError):
    """Numerical failure: the propagated state violates physicality bounds."""


@dataclass(frozen=True)
class ControlSchedule:
    """K x L grid of piecewise-constant control amplitudes over total_time."""

    amplitudes: np.ndarray
    total_time: float
    u_max: float | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 2:
            raise ValueError(f"amplitude grid must be K x L, got shape {amps.shape}")
        if amps.shape[0] < 1:
            raise ValueError("at least one slice is required")
        if not np.all(np.isfinite(amps)):
            raise ValueError("control amplitudes must be finite")
        if self.total_time <= 0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if self.u_max is not None and np.max(np.abs(amps), initial=0.0) > self.u_max:
            raise ValueError(f"amplitudes exceed the configured bound {self.u_max}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "total_time", float(self.total_time))

    @classmethod
    def zero(cls, K: int, L: int, total_time: float) -> "ControlSchedule":
        return cls(np.zeros((K, L)), total_time)

    @property
    def K(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def L(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def dt(self) -> float:
        return self.total_time / self.K


class SlicedDynamics:
    """Precomputed superoperator pieces of one encoding model.

    The slice generator is assembled as omega0*D + G + sum_l u_l C_l where
    D = -i(I kron G_H - G_H^* kron I) for the frequency generator G_H, G is the
    dissipator, and C_l the control commutator superoperators. Building these
    once per model keeps the optimizer's inner loop allocation-free.
    """

    def __init__(self, model: EncodingModel):
        self.model = model
        self.dim = model.dim
        self.drift_super = np.ascontiguousarray(-1j * hamiltonian_superop(model.generator))
        if model.channel.lindblad_ops:
            self.noise_super = np.ascontiguousarray(
                dissipator_superop(model.channel).astype(complex))
        else:
            m = self.dim * self.dim
            self.noise_super = np.zeros((m, m), dtype=complex)
        self.control_supers = np.ascontiguousarray(
            np.array([-1j * hamiltonian_superop(H) for H in model.control_hams],
                     dtype=complex).reshape(model.n_controls, self.dim ** 2, self.dim ** 2))

    def constant_generator(self, omega0: float | None = None) -> np.ndarray:
        om = self.model.omega0 if omega0 is None else float(omega0)
        return om * self.drift_super + self.noise_super

    def evolve_vectorized(self, schedule: ControlSchedule, v0: np.ndarray,
                          omega0: float | None = None) -> np.ndarray:
        if schedule.L != self.model.n_controls:
            raise ValueError(
                f"schedule has {schedule.L} fields but the model has "
                f"{self.model.n_controls} control Hamiltonians")
        return _kern.propagate_schedule(self.constant_generator(omega0), self.control_supers,
                                        schedule.amplitudes, schedule.dt, v0)

    def evolve(self, schedule: ControlSchedule, rho0: np.ndarray,
               omega0: float | None = None) -> np.ndarray:
        v = self.evolve_vectorized(schedule, vectorize(np.asarray(rho0, dtype=complex)),
                                   omega0)
        rho = unvectorize(v)
        check_evolved_state(rho)
        return rho


def check_evolved_state(rho: np.ndarray) -> None:
    """Raise PropagationError unless rho has unit trace, is Hermitian and has
    no eigenvalue below -EVOLVED_POSITIVITY_TOL. A NaN fails every check."""
    tr_err = abs(np.trace(rho) - 1.0)
    if not tr_err <= EVOLVED_TRACE_TOL:
        raise PropagationError(f"propagated state trace deviates from 1 by {tr_err:.3e}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= EVOLVED_HERMITICITY_TOL:
        raise PropagationError(f"propagated state non-Hermitian by {herm:.3e}")
    lam_min = float(np.linalg.eigvalsh(rho)[0])
    if not lam_min >= -EVOLVED_POSITIVITY_TOL:
        raise PropagationError(f"propagated state has negative eigenvalue {lam_min:.3e}")
