"""Liouville-space representation: state vectorization and superoperator
construction for Markovian master equations.

States are column-stacked, rho -> |rho> with element rho_ij at position j*d+i,
so an operator sandwich U rho V maps to (V^T kron U)|rho>. The generator of
the master equation

    drho/dt = -i[H, rho] + sum_v gamma_v (L_v rho L_v^dag - {L_v^dag L_v, rho}/2)

then acts as the d^2 x d^2 matrix returned by :func:`lindbladian`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a length-d^2 vector."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(-1, order="F")


def unvectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; a (..., d^2) stack of vectors gives the
    (..., d, d) stack of their matrices."""
    vec = np.asarray(vec)
    n = vec.shape[-1]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"vector length {n} is not a perfect square")
    # a view, each matrix column-major as the vector stacks it
    return vec.reshape(vec.shape[:-1] + (d, d)).swapaxes(-1, -2)


@dataclass(frozen=True)
class NoiseChannel:
    """A set of Lindblad operators with their dissipation rates (1/s)."""

    lindblad_ops: tuple
    rates: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex) for op in self.lindblad_ops)
        rates = tuple(float(g) for g in self.rates)
        if len(ops) != len(rates):
            raise ValueError("one rate per Lindblad operator is required")
        for g in rates:
            if not 0 <= g < math.inf:
                raise ValueError(f"dissipation rates must be non-negative and finite, got {g}")
        dims = {op.shape for op in ops}
        if len(dims) > 1:
            raise ValueError(f"Lindblad operators have mixed shapes: {dims}")
        for op in ops:
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValueError("Lindblad operators must be square matrices")
        object.__setattr__(self, "lindblad_ops", ops)
        object.__setattr__(self, "rates", rates)

    @property
    def dim(self) -> int | None:
        return self.lindblad_ops[0].shape[0] if self.lindblad_ops else None


def hamiltonian_superop(H: np.ndarray) -> np.ndarray:
    """Commutator superoperator: I kron H - H^* kron I.

    Multiplying by -i gives the generator of -i[H, rho] on vectorized states.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {H.shape}")
    eye = np.eye(H.shape[0])
    return np.kron(eye, H) - np.kron(H.conj(), eye)


def dissipator_superop(channel: NoiseChannel) -> np.ndarray:
    """Dissipator superoperator of the master equation's noise term.

    Consistent with rate gamma_v multiplying the full sandwich-minus-
    anticommutator bracket (an empty channel gives the zero matrix).
    """
    if channel.dim is None:
        raise ValueError("cannot infer dimension from an empty channel; "
                         "use numpy.zeros for an explicit zero superoperator")
    d = channel.dim
    eye = np.eye(d)
    G = np.zeros((d * d, d * d), dtype=complex)
    for L, g in zip(channel.lindblad_ops, channel.rates):
        LdL = L.conj().T @ L
        G += g * (np.kron(L.conj(), L)
                  - 0.5 * np.kron(eye, LdL)
                  - 0.5 * np.kron(LdL.T, eye))
    return G


def lindbladian(H: np.ndarray, channel: NoiseChannel) -> np.ndarray:
    """Full generator -i(I kron H - H^* kron I) + dissipator."""
    H = np.asarray(H, dtype=complex)
    out = -1j * hamiltonian_superop(H)
    if channel.lindblad_ops:
        if channel.dim != H.shape[0]:
            raise ValueError(
                f"channel dimension {channel.dim} does not match Hamiltonian {H.shape[0]}")
        out = out + dissipator_superop(channel)
    return out
