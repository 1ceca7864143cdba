"""Piecewise-constant controlled evolution of vectorized states and their
exact frequency derivative.

The encoding time T is divided into K slices; slice k evolves under
exp(L[k] dt) with L[k] built from H[k] = omega0*G + sum_l u_l[k] H_l and the
model's noise channel. A model is a register of one-qubit sites, and L[k]
is the Kronecker sum of the sites' own generators, so every register takes
the same steps in lindmet._kern, with the sites' pieces only.

Those pieces are real. A qubit's state is carried as its coordinates
(rho00, rho11, Re rho10, Im rho10) in the Hermitian basis |0><0|, |1><1|,
sigma_x, sigma_y, and a Lindblad generator preserves Hermiticity, so in any
Hermitian operator basis its matrix is real (Greenbaum 2015,
arXiv:1509.02921, does this in the Pauli basis). This basis is chosen
because the coordinates are entries of rho, so a state converts to them and
back without rounding: a schedule run slice by slice through
:meth:`SlicedDynamics.evolve` ends bit for bit where one call does.

Every propagation carries the state and its exact frequency derivative
together: with A = omega0*D + G + sum_l u_l C_l, the block [[A, 0], [D, A]]
exponentiates to [[exp(A t), 0], [d/domega0 exp(A t), exp(A t)]] (Van Loan
1978, IEEE TAC 23:395), so one propagation of these 8x8 blocks gives both.
Each run of equal consecutive rows of the amplitude grid is one exponential
over the run's duration (a fixed scheme's constant schedule is a single
run), and all of a call's exponentials, over every encoding time and site,
go through one batched call to the kernel's numpy-only Taylor exponential;
an idle site, such as the ancilla, takes none.

Every propagation runs on a :class:`PreparedProbe`, which holds what does
not depend on the amplitudes, built once per probe, frequency and set of
slice lengths (:meth:`SlicedDynamics.prepare`), and one drift block per
site that serves every slice length. It propagates a stack of amplitude
grids, each at its own encoding time's slice length, in one kernel call:
N schedules of one K x L shape, or a round of a control search's points,
whose probe is prepared once for its whole time grid.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
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
        if not (np.isfinite(self.total_time) and self.total_time > 0):
            raise ValueError(f"total_time must be positive and finite, got {self.total_time}")
        if self.u_max is not None:
            if not 0 < self.u_max < np.inf:
                raise ValueError(f"u_max must be positive and finite, got {self.u_max}")
            if np.max(np.abs(amps), initial=0.0) > self.u_max:
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


def _superops(generator, control_hams, channel):
    """The drift, noise and control superoperators of the generator
    -i[omega0 G + sum_l u_l H_l, .] + dissipator on d x d operators."""
    d = generator.shape[0]
    drift = np.ascontiguousarray(-1j * hamiltonian_superop(generator))
    if channel.lindblad_ops:
        noise = np.ascontiguousarray(dissipator_superop(channel).astype(complex))
    else:
        noise = np.zeros((d * d, d * d), dtype=complex)
    controls = np.ascontiguousarray(
        np.array([-1j * hamiltonian_superop(H) for H in control_hams],
                 dtype=complex).reshape(len(control_hams), d * d, d * d))
    return drift, noise, controls


def _site_product_order(n_sites: int) -> np.ndarray:
    """The column-stacked vector's index at each index of site-product
    order, in which site s has the digit j_s * 2 + i_s (its own column-stacked
    index, for row bit i_s and column bit j_s) in base 4, site 0 first."""
    # the column-stacked index is (j_0 .. j_{n-1}, i_0 .. i_{n-1}) in base 2
    axes = [a for s in range(n_sites) for a in (s, n_sites + s)]
    return np.arange(4 ** n_sites).reshape((2,) * (2 * n_sites)).transpose(axes).ravel()


# A qubit operator's coordinates (rho00, rho11, Re rho10, Im rho10) in the
# Hermitian basis |0><0|, |1><1|, sigma_x, sigma_y are _COORDINATES times its
# column-stacked vector, real for a Hermitian operator; _OPERATORS is the
# inverse. Every entry is 0, +-1 or +-i over a power of two and no row has
# more than two nonzero ones, so coordinates go to an operator and back
# without rounding, and a stack changes basis entry by entry.
_COORDINATES = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0]])
_OPERATORS = np.array([[1, 0, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j], [0, 1, 0, 0]])


def _change_basis(M: np.ndarray, x: np.ndarray, n_sites: int) -> np.ndarray:
    """``M`` applied along each site's axis of ``x``, the last one or two."""
    x = x @ M.T
    return M @ x if n_sites == 2 else x


def _real_superop(S: np.ndarray) -> np.ndarray:
    """A qubit superoperator on column-stacked vectors, or a stack of them,
    as the real 4x4 matrix that maps coordinates to coordinates."""
    return np.ascontiguousarray((_COORDINATES @ S @ _OPERATORS).real)


def _van_loan(A: np.ndarray, D: np.ndarray | None = None) -> np.ndarray:
    """The (..., 8, 8) blocks [[A, 0], [D, A]] of a (..., 4, 4) stack A; D is
    zero when not given."""
    out = np.zeros(A.shape[:-2] + (8, 8))
    out[..., :4, :4] = out[..., 4:, 4:] = A
    if D is not None:
        out[..., 4:, :4] = D
    return out


class SlicedDynamics:
    """Precomputed superoperator pieces of one encoding model.

    Each site's slice generator is omega0*D + G + sum_l u_l C_l, where D
    generates -i[G_H, .] for the site's frequency generator G_H, G is its
    dissipator and C_l those of its control Hamiltonians: real 4x4 matrices
    in the basis of ``_COORDINATES``, kept only as their 8x8 Van Loan
    blocks, built once per model. ``drift_super``, ``noise_super``,
    ``control_supers`` and :meth:`constant_generator` are the same pieces
    on the whole register, complex d^2 x d^2 matrices on column-stacked
    states, built on first use for reference: no propagation uses them.
    """

    def __init__(self, model: EncodingModel):
        self.model = model
        self.dim = model.dim
        # omega0*[[D, 0], [0, D]] + [[G, 0], [D, G]] is bit for bit the block of omega0*D + G
        self._blocks = []
        for s in model.sites:
            D, G, C = (_real_superop(piece)
                       for piece in _superops(s.generator, s.control_hams, s.channel))
            self._blocks.append((_van_loan(D), _van_loan(G, D), _van_loan(C)))
        # which amplitude columns each site takes, and whether it is idle
        bounds = np.cumsum([0] + [len(s.control_hams) for s in model.sites]).tolist()
        self._columns = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        # an idle site takes no exponential; a register keeps one site that does
        trivial = [not (D.any() or G.any() or len(C)) for D, G, C in self._blocks]
        self._idle = [t and not all(trivial) for t in trivial]
        # site-product order, which on one site is the state's own
        self._order = self._unorder = slice(None)
        if len(self._blocks) > 1:
            self._order = _site_product_order(len(self._blocks))
            self._unorder = np.argsort(self._order)

    @functools.cached_property
    def _full_pieces(self):
        return _superops(self.model.generator, self.model.control_hams, self.model.channel)

    @property
    def drift_super(self) -> np.ndarray:
        return self._full_pieces[0]

    @property
    def noise_super(self) -> np.ndarray:
        return self._full_pieces[1]

    @property
    def control_supers(self) -> np.ndarray:
        return self._full_pieces[2]

    def constant_generator(self, omega0: float | None = None) -> np.ndarray:
        """omega0*D + G of the whole register at the model's frequency, or at ``omega0``."""
        om = self.model.omega0 if omega0 is None else omega0
        return om * self.drift_super + self.noise_super

    def prepare(self, v0: np.ndarray, dt: Sequence[float], omega0: float | None = None):
        """``v0`` ready to propagate over slices of each length in ``dt``."""
        return PreparedProbe(self, v0, dt, omega0)

    def evolve_vectorized(self, schedule: ControlSchedule | Sequence[ControlSchedule],
                          v0: np.ndarray, omega0: float | None = None):
        """The vectorized state after ``schedule`` acts on ``v0`` and its exact
        derivative in omega0, as a pair from one kernel call, at the model's
        frequency or at ``omega0``.

        ``schedule`` may also be a sequence of N schedules of one K x L
        shape, each with its own amplitudes and total time, such as a
        scheme's schedules at N encoding times: the states and derivatives
        are then (N, d^2) stacks, each row bit for bit its own call's.
        """
        single = isinstance(schedule, ControlSchedule)
        schedules = [schedule] if single else list(schedule)
        if len({s.amplitudes.shape for s in schedules}) != 1:
            raise ValueError("the schedules must have one K x L shape")
        amps = np.stack([s.amplitudes for s in schedules])
        if amps.shape[2] != self.model.n_controls:
            raise ValueError(
                f"schedule has {amps.shape[2]} fields but the model has "
                f"{self.model.n_controls} control Hamiltonians")
        probe = self.prepare(v0, [s.dt for s in schedules], omega0)
        states, derivatives = probe.propagate(amps, np.arange(len(schedules)))
        return (states[0], derivatives[0]) if single else (states, derivatives)

    def evolve(self, schedule: ControlSchedule, rho0: np.ndarray, omega0: float | None = None):
        """The density matrix after ``schedule`` acts on ``rho0``, at the
        model's frequency or at ``omega0``: the state half of
        :meth:`evolve_vectorized`, checked by :func:`check_evolved_state`."""
        v, _ = self.evolve_vectorized(schedule, vectorize(np.asarray(rho0, dtype=complex)),
                                      omega0)
        rho = unvectorize(v)
        check_evolved_state(rho)
        return rho


class PreparedProbe:
    """A probe at one frequency, ready to propagate over its slice lengths: its
    coordinates in site-product order, zero-padded into the Van Loan
    blocks' first half, and every active site's one block of omega0*D + G,
    which serves every slice length."""

    def __init__(self, dyn: SlicedDynamics, v0: np.ndarray, dt: Sequence[float],
                 omega0: float | None = None):
        self.dyn, n = dyn, len(dyn._blocks)
        x = _change_basis(_COORDINATES, np.asarray(v0)[dyn._order].reshape((4,) * n), n)
        if not x.imag.any():
            x = x.real
        # the state in the first half of every site's axis, and no derivative
        x0, x = x, np.zeros((8,) * n, dtype=x.dtype)
        x[(slice(4),) * n] = x0
        self._dt, self._x = np.array(dt, dtype=np.float64), x.ravel()
        om = float(dyn.model.omega0 if omega0 is None else omega0)
        self._drifts = tuple(None if idle else om * D + G
                             for (D, G, _), idle in zip(dyn._blocks, dyn._idle))
        self._ctrls = tuple(C for _, _, C in dyn._blocks)

    def propagate(self, amps: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (N, d^2) stacks of the states and their derivatives in omega0
        after each grid of the float64 (N, K, L) stack ``amps`` acts, grid i
        at slice length ``dt[at[i]]``, from one ``_kern.propagate_schedule``
        call; the states are not checked."""
        dyn, n = self.dyn, len(self._drifts)
        v = _kern.propagate_schedule(
            self._drifts, self._ctrls, tuple(amps[..., cols] for cols in dyn._columns),
            self._dt[at], self._x)
        if n == 1:
            v = v.reshape(-1, 2, 4)  # [x; dx]
        else:
            # [[U0 X U1^T, U0 X dU1^T], [dU0 X U1^T, dU0 X dU1^T]], one dual number
            # per site: the two first-order blocks add up to dX, and their
            # product, the last block, is dropped
            x = v.reshape(-1, 8, 8)
            v = np.empty((len(x), 2, 4, 4), dtype=v.dtype)
            v[:, 0] = x[:, :4, :4]
            np.add(x[:, :4, 4:], x[:, 4:, :4], out=v[:, 1])
        v = _change_basis(_OPERATORS, v, n).reshape(-1, 2, dyn.dim ** 2)[..., dyn._unorder]
        return v[:, 0], v[:, 1]


def evolved_state_faults(rho: np.ndarray) -> list[str | None]:
    """For each state of a (..., d, d) stack, in order, why it fails the
    propagated-state checks, or None if it passes them.

    A state must have unit trace, be Hermitian and have no eigenvalue below
    -EVOLVED_POSITIVITY_TOL; the checks run in that order and a fault names
    the first one failed. A NaN fails every check.
    """
    rho = np.asarray(rho)
    stack = rho.reshape((-1,) + rho.shape[-2:])
    tr_err = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    herm = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    lam_min = np.full(len(stack), np.nan)
    sane = (tr_err <= EVOLVED_TRACE_TOL) & (herm <= EVOLVED_HERMITICITY_TOL)
    if sane.any():
        lam_min[sane] = np.linalg.eigvalsh(stack[sane])[:, 0]
    faults = [None] * len(stack)
    for i in np.flatnonzero(~(lam_min >= -EVOLVED_POSITIVITY_TOL)).tolist():
        if not tr_err[i] <= EVOLVED_TRACE_TOL:
            faults[i] = f"propagated state trace deviates from 1 by {tr_err[i]:.3e}"
        elif not herm[i] <= EVOLVED_HERMITICITY_TOL:
            faults[i] = f"propagated state non-Hermitian by {herm[i]:.3e}"
        else:
            faults[i] = f"propagated state has negative eigenvalue {lam_min[i]:.3e}"
    return faults


def check_evolved_state(rho: np.ndarray) -> None:
    """Raise PropagationError unless rho, one state or a stack of them, passes
    the checks of :func:`evolved_state_faults`; the error describes the first
    state that fails."""
    fault = next((f for f in evolved_state_faults(rho) if f), None)
    if fault:
        raise PropagationError(fault)
