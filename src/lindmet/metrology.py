"""Quantum Fisher information (two estimators), Uhlmann fidelity, and the
time-normalized sensitivity figure of merit.

The frequency derivative of the evolved state is exact: the state and its
derivative come from one propagation of Van Loan blocks (see
:mod:`lindmet.propagation`), one kernel call. Derivatives and QFIs also come
as stacks, for N schedules of one K x L shape at several encoding times,
each entry bit for bit its own call's.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Sequence

import numpy as np

from .liouville import unvectorize, vectorize
from .propagation import (ControlSchedule, PropagationError, SlicedDynamics,
                          evolved_state_faults)

log = logging.getLogger(__name__)

# Eigenvalue-pair threshold excluding numerically-zero kernel pairs from the
# QFI sum, and the tolerance on the trace and Hermiticity of d(rho)/d(omega0).
SPECTRAL_CUTOFF = 1e-12
DERIVATIVE_SANITY_TOL = 1e-9


class MetrologyError(RuntimeError):
    """Numerically inconsistent metrology inputs (bad states or derivatives)."""


def drho_domega(dyn: SlicedDynamics, schedule: ControlSchedule | Sequence[ControlSchedule],
                rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho(omega0) and its exact derivative d(rho)/d(omega0).

    The schedule is held fixed; the state and its derivative come from one
    kernel call (see :meth:`SlicedDynamics.evolve_vectorized`). ``schedule``
    may also be a sequence of N schedules of one K x L shape, each with its
    own amplitudes and total time, such as a scheme's schedules at N
    encoding times: then all of them share that one call, and rho and the
    derivative come back as (N, d, d) stacks, each bit for bit its own
    call's. Each rho must pass the propagated-state checks and each
    derivative must be Hermitian and traceless, which a NaN is not; the
    first schedule in order that fails raises :class:`PropagationError` or
    :class:`MetrologyError`, and the message names its encoding time.
    """
    single = isinstance(schedule, ControlSchedule)
    schedules = [schedule] if single else list(schedule)
    v, dv = dyn.evolve_vectorized(schedules, vectorize(np.asarray(rho0, dtype=complex)))
    # unvectorize only reshapes
    rho, drho = unvectorize(v), unvectorize(dv)
    _check(schedules, rho, drho)
    return (rho[0], drho[0]) if single else (rho, drho)


def _check(schedules, rho, drho) -> None:
    """Raise for the first schedule whose state or derivative fails the
    checks of :func:`drho_domega`, in that order."""
    state_faults = evolved_state_faults(rho)
    tr_err = np.abs(np.trace(drho, axis1=1, axis2=2))
    herm_err = np.abs(drho - drho.conj().swapaxes(1, 2)).max(axis=(1, 2))
    for i, s in enumerate(schedules):
        if state_faults[i]:
            exc = PropagationError(state_faults[i])
        elif not (tr_err[i] <= DERIVATIVE_SANITY_TOL and herm_err[i] <= DERIVATIVE_SANITY_TOL):
            exc = MetrologyError(f"derivative sanity check failed (|trace|={tr_err[i]:.3e}, "
                                 f"non-Hermiticity={herm_err[i]:.3e})")
        else:
            continue
        raise type(exc)(f"at T={s.total_time:g} s: {exc}")


def qfi_eigen(rho_x: np.ndarray, drho: np.ndarray) -> float | np.ndarray:
    """QFI from the eigendecomposition of rho_x:

        F_Q = sum_{lam_p + lam_q > SPECTRAL_CUTOFF} 2 |<p|drho|q>|^2 / (lam_p + lam_q)

    Pairs with a NaN eigenvalue sum are dropped, so a non-finite state scores
    0, and a term that overflows is inf, without a warning; a search scores
    unchecked states, and reported ones are checked first. Only the kept
    pairs are divided; a dropped pair's term is 0 without one.
    A (N, d, d) stack of states and derivatives gives an array of N QFIs,
    each bit for bit the call on its own pair.
    """
    rho_x = np.asarray(rho_x, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    try:
        lam, vecs = np.linalg.eigh(rho_x)
    except np.linalg.LinAlgError:
        # eigh need not converge on a state that is not finite; such a state
        # takes NaN eigenvalues, as eigh gives it when it does converge
        bad = ~np.isfinite(rho_x).all(axis=(-2, -1))
        if not bad.any():
            raise
        lam, vecs = np.linalg.eigh(np.where(bad[..., None, None], np.eye(rho_x.shape[-1]),
                                            rho_x))
        lam[bad] = np.nan
    M = vecs.conj().swapaxes(-1, -2) @ drho @ vecs
    pair_sums = lam[..., :, None] + lam[..., None, :]
    # each pair's term above the cutoff, 0 for the others
    weights = np.abs(M)
    terms = np.zeros_like(weights)
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(weights, out=weights)
        np.multiply(weights, 2.0, out=weights)
        np.divide(weights, pair_sums, out=terms, where=pair_sums > SPECTRAL_CUTOFF)
    qfi = np.add.reduce(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)
    return float(qfi) if qfi.ndim == 0 else qfi


def _floor(lam: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a d x d PSD matrix with each one at or below
    d eps lam_max set to 0: on a rank-deficient state that is roundoff, whose
    square root (3e-9 for 1e-17) would otherwise enter the fidelity."""
    return np.where(lam > len(lam) * np.finfo(np.float64).eps * lam[-1], lam, 0.0)


def _psd_sqrt(rho: np.ndarray, label: str) -> np.ndarray:
    lam, vecs = np.linalg.eigh(rho)
    clamped = _floor(lam)
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
    lam = _floor(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0))
    return float(min(np.sqrt(lam).sum(), 1.0))


def qfi_fidelity(rho_exact: np.ndarray, rho_perturbed: np.ndarray,
                 delta: float) -> float:
    """QFI from Uhlmann fidelity between the exact and perturbed states:

        F_Q ~= 8 (1 - F(rho_exact, rho_perturbed)) / delta^2
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"perturbation step must be positive and finite, got {delta}")
    fid = uhlmann_fidelity(rho_exact, rho_perturbed)
    value = 8.0 * (1.0 - fid) / delta**2
    if value < -1e-6:
        raise MetrologyError(
            f"fidelity estimator returned {value:.3e} < -1e-6; "
            "the two states are inconsistent")
    return max(value, 0.0)


def sensitivity(qfi: float, total_time: float, gamma_c: float = 1.0) -> float:
    """Time-normalized precision sqrt(T) / (gamma_c sqrt(F_Q)); lower is better.

    A zero QFI carries no information, reported as infinite sensitivity. An
    infinite QFI, or a sensitivity that is not positive and finite (a tiny or
    huge ``gamma_c``), raises :class:`MetrologyError` naming the encoding time.
    """
    if total_time <= 0:
        raise ValueError(f"encoding time must be positive, got {total_time}")
    if gamma_c <= 0:
        raise ValueError(f"transduction parameter must be positive, got {gamma_c}")
    if qfi <= 0:
        return float("inf")
    if not qfi < math.inf:
        raise MetrologyError(f"at T={total_time:g} s: the QFI {qfi} is not a finite float")
    denominator = gamma_c * math.sqrt(qfi)
    value = math.sqrt(total_time) / denominator if denominator > 0 else math.inf
    if not 0.0 < value < math.inf:
        raise MetrologyError(f"at T={total_time:g} s: the sensitivity of QFI {qfi:.3e} "
                             f"with gamma_c={gamma_c:.3e} is not a positive finite float")
    return value
