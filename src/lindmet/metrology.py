"""Quantum Fisher information (two estimators), Uhlmann fidelity, and the
time-normalized sensitivity figure of merit."""
from __future__ import annotations

import logging

import numpy as np

from .liouville import unvectorize, vectorize
from .propagation import ControlSchedule, SlicedDynamics, check_evolved_state

log = logging.getLogger(__name__)

# Eigenvalue-pair threshold excluding numerically-zero kernel pairs from the
# QFI sum, and the tolerance on the trace and Hermiticity of d(rho)/d(omega0).
SPECTRAL_CUTOFF = 1e-12
DERIVATIVE_SANITY_TOL = 1e-9


class MetrologyError(RuntimeError):
    """Numerically inconsistent metrology inputs (cancellation, bad states)."""


def default_delta(omega0: float, total_time: float) -> float:
    """Central-difference step for the frequency derivative.

    Relative to omega0, and capped so that the phase step delta*T stays at
    most 1e-3: the difference's relative error grows as (delta*T)^2, so a
    step that scales with omega0 alone fails once omega0*T is large."""
    return min(1e-4 * max(abs(omega0), 1.0), 1e-3 / total_time)


def default_fidelity_delta(omega0: float, total_time: float) -> float:
    """Step for the fidelity-based estimator.

    Large enough that the 1-F signal clears the matrix-square-root noise floor
    (worst for rank-deficient states such as dephased GHZ, ~1e-8), small
    enough that the accumulated phase delta*T keeps the quadratic truncation
    well under a percent even when F_Q approaches its pure-state ceiling."""
    return min(5e-2 * max(abs(omega0), 1.0), 0.15 / total_time)


def drho_domega(dyn: SlicedDynamics, schedule: ControlSchedule, rho0: np.ndarray,
                checked: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """rho(omega0) and the central difference
    (rho(omega0+delta) - rho(omega0-delta)) / (2 delta).

    The schedule is held fixed while the frequency is perturbed by the step
    :func:`default_delta`. With ``checked``, rho must pass the
    propagated-state checks and the difference must be Hermitian and
    traceless, with a step above the cancellation floor; a failure raises
    :class:`PropagationError` or :class:`MetrologyError`.
    """
    omega0 = dyn.model.omega0
    delta = default_delta(omega0, schedule.total_time)
    if checked:
        # below this the generator perturbation sits in the last few bits of the
        # superoperator entries and the difference is pure cancellation noise
        floor = 1e-12 * max(abs(omega0), 1.0)
        if delta < floor:
            raise MetrologyError(
                f"derivative step {delta:.3e} is below the cancellation floor "
                f"{floor:.3e} for omega0={omega0:.3e}")
    v0 = vectorize(np.asarray(rho0, dtype=complex))
    rho = unvectorize(dyn.evolve_vectorized(schedule, v0, omega0))
    rho_p = unvectorize(dyn.evolve_vectorized(schedule, v0, omega0 + delta))
    rho_m = unvectorize(dyn.evolve_vectorized(schedule, v0, omega0 - delta))
    drho = (rho_p - rho_m) / (2.0 * delta)
    if checked:
        check_evolved_state(rho)
        tr_err = abs(np.trace(drho))
        herm_err = np.max(np.abs(drho - drho.conj().T))
        if not (tr_err <= DERIVATIVE_SANITY_TOL and herm_err <= DERIVATIVE_SANITY_TOL):
            raise MetrologyError(
                f"derivative sanity check failed (|trace|={tr_err:.3e}, "
                f"non-Hermiticity={herm_err:.3e}); delta={delta:.3e} may be too small")
    return rho, drho


def qfi_eigen(rho_x: np.ndarray, drho: np.ndarray) -> float:
    """QFI from the eigendecomposition of rho_x:

        F_Q = sum_{lam_p + lam_q > SPECTRAL_CUTOFF} 2 |<p|drho|q>|^2 / (lam_p + lam_q)

    Pairs with a NaN eigenvalue sum are dropped, so a non-finite state scores
    0 in the unchecked search objective; reported states are checked first.
    """
    rho_x = np.asarray(rho_x, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    lam, vecs = np.linalg.eigh(rho_x)
    M = vecs.conj().T @ drho @ vecs
    pair_sums = lam[:, None] + lam[None, :]
    mask = pair_sums > SPECTRAL_CUTOFF
    terms = np.zeros_like(pair_sums)
    terms[mask] = 2.0 * np.abs(M[mask]) ** 2 / pair_sums[mask]
    return float(terms.sum())


def _psd_sqrt(rho: np.ndarray, label: str) -> np.ndarray:
    lam, vecs = np.linalg.eigh(rho)
    clamped = np.clip(lam, 0.0, None)
    worst = float(lam[0])
    if not worst >= -1e-10:
        raise MetrologyError(f"{label} is not positive semidefinite "
                             f"(min eigenvalue {worst:.3e})")
    if worst < 0:
        log.debug("clamped negative eigenvalue %.3e in %s", worst, label)
    return (vecs * np.sqrt(clamped)) @ vecs.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for label, state in (("rho", rho), ("sigma", sigma)):
        if not abs(np.trace(state) - 1.0) <= 1e-9:
            raise MetrologyError(f"{label} trace deviates from 1 beyond tolerance")
        if not np.max(np.abs(state - state.conj().T)) <= 1e-9:
            raise MetrologyError(f"{label} is not Hermitian within tolerance")
    s = _psd_sqrt(rho, "rho")
    inner = s @ sigma @ s
    lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    lam = np.clip(lam, 0.0, None)
    return float(min(np.sqrt(lam).sum(), 1.0))


def qfi_fidelity(rho_exact: np.ndarray, rho_perturbed: np.ndarray,
                 delta: float) -> float:
    """QFI from Uhlmann fidelity between the exact and perturbed states:

        F_Q ~= 8 (1 - F(rho_exact, rho_perturbed)) / delta^2
    """
    if delta <= 0:
        raise ValueError(f"perturbation step must be positive, got {delta}")
    fid = uhlmann_fidelity(rho_exact, rho_perturbed)
    value = 8.0 * (1.0 - fid) / delta**2
    if value < -1e-6:
        raise MetrologyError(
            f"fidelity estimator returned {value:.3e} < -1e-6; "
            "the two states are inconsistent")
    return max(value, 0.0)


def sensitivity(qfi: float, total_time: float, gamma_c: float = 1.0) -> float:
    """Time-normalized precision sqrt(T) / (gamma_c sqrt(F_Q)); lower is better.

    A zero QFI carries no information, reported as infinite sensitivity.
    """
    if total_time <= 0:
        raise ValueError(f"encoding time must be positive, got {total_time}")
    if gamma_c <= 0:
        raise ValueError(f"transduction parameter must be positive, got {gamma_c}")
    if qfi <= 0:
        return float("inf")
    return float(np.sqrt(total_time) / (gamma_c * np.sqrt(qfi)))
