"""Propagation kernel: ``expm`` and final-state ``propagate_schedule``.

Slices are exponentiated by Pade scaling and squaring. ``propagate_schedule``
exponentiates each run of equal consecutive amplitude rows once (a constant
schedule, or a model without controls, is a single run) and applies that
propagator to every slice of the run, so the final vector is bit for bit a
per-slice loop's. Given a stack of W drift generators it propagates the same
schedule under each, as the central-difference derivative needs at three
frequencies, and each generator may have its own slice length, so that one
call covers the same schedule at several encoding times: the runs are found
once, and the W generators of every run go through one batched call,
``expm_stack``, whose results are bit for bit those of ``scipy.linalg.expm``
on each slice. ``scipy.linalg.expm`` walks a stack in Python one slice at a
time, and on 4x4 slices most of its time goes to that per-slice dispatch.
``expm_stack`` instead runs scipy's own Pade kernels (``pick_pade_structure``
and ``pade_UV_calc`` from the private ``scipy.linalg._matfuncs_expm``) on each
generic slice, squares the slices that share a squaring count as one stacked
product, and leaves diagonal and triangular slices to one
``scipy.linalg.expm`` call, which has special branches for them. A private
module is no stable interface, so a probe at import checks that its kernels
reproduce ``scipy.linalg.expm`` bit for bit; if they do not, every slice
goes through ``scipy.linalg.expm``.
"""
import functools

import numpy as np
import scipy.linalg
from scipy.linalg import _matfuncs_expm

# The kernel's name, which every result file records as its "## kernel" line.
# It is fixed: older result files and their readers expect the line.
BACKEND = "python"

_PADE_KERNELS = True  # on while the probe below runs; the probe then decides


@functools.lru_cache(maxsize=None)
def _strict_triangles(m):
    """Boolean masks of the strict lower and strict upper part of an m x m matrix."""
    lower = np.tri(m, k=-1, dtype=bool)
    return lower, lower.T.copy()


def expm_stack(A):
    """exp(A[k]) for every slice of a (K, m, m) complex128 stack, bit for bit
    ``scipy.linalg.expm`` applied to each slice."""
    out = np.empty_like(A)
    # scipy's expm treats a slice as generic when it has a nonzero entry both
    # below and above the diagonal; the others take its special branches
    nonzero = A != 0
    lower, upper = _strict_triangles(A.shape[-1])
    generic = (nonzero & lower).any(axis=(1, 2)) & (nonzero & upper).any(axis=(1, 2))
    if not _PADE_KERNELS:
        generic[:] = False
    if not generic.all():
        out[~generic] = scipy.linalg.expm(A[~generic])

    by_squarings = {}
    work = np.empty((5,) + A.shape[1:], dtype=A.dtype)
    for k in np.flatnonzero(generic).tolist():
        work[0] = A[k]
        order, s = _matfuncs_expm.pick_pade_structure(work)
        if order < 0:
            raise MemoryError("scipy.linalg.expm could not allocate sufficient memory "
                              f"while trying to compute the Pade structure (error code {order}).")
        info = _matfuncs_expm.pade_UV_calc(work, order)
        if info != 0:
            if info <= -11:
                raise MemoryError("scipy.linalg.expm could not allocate sufficient memory "
                                  f"while trying to compute the exponential (error code {info}).")
            raise RuntimeError("scipy.linalg.expm got an internal LAPACK error during the "
                               f"exponential computation (error code {info})")
        out[k] = work[0]
        by_squarings.setdefault(s, []).append(k)

    # the squarings of all slices that need the same number, as one stacked product
    for s, group in by_squarings.items():
        if s:
            E = out[group]
            for _ in range(s):
                E = E @ E
            out[group] = E
    return out


def _pade_kernels_match():
    """Whether scipy's private Pade kernels take the calls ``expm_stack`` makes
    and reproduce ``scipy.linalg.expm`` bit for bit, with and without squaring."""
    base = np.arange(16.0).reshape(4, 4) + 1j * np.arange(16.0)[::-1].reshape(4, 4)
    probe = np.stack([1e-3 * base, 0.5 * base])
    try:
        got = expm_stack(probe)
    except (TypeError, ValueError):  # a changed signature or buffer layout
        return False
    return bool(np.array_equal(got.view(np.uint64), scipy.linalg.expm(probe).view(np.uint64)))


_PADE_KERNELS = _pade_kernels_match()


def expm(a):
    """Matrix exponential of a square complex matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix")
    return expm_stack(a[None])[0]


def propagate_schedule(L0, ctrls, amps, dt, v0):
    """Apply exp((L0 + sum_l amps[k,l]*ctrls[l]) * dt) to v0 for k = 0..K-1
    and return the final vector.

    ``L0`` may also be a (W, m, m) stack of drift generators: the schedule
    then propagates v0 under each of them and the result is (W, m), row w
    bit for bit the call with ``L0[w]`` alone. ``dt`` is one slice length for
    all of them or W lengths, one per generator: row w is then bit for bit
    the call with ``L0[w]`` and ``dt[w]``. All W generators of every run go
    through one ``expm_stack`` call.
    """
    L0 = np.asarray(L0, dtype=np.complex128)
    ctrls = np.asarray(ctrls, dtype=np.complex128)
    amps = np.asarray(amps, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.complex128)
    dt = np.asarray(dt, dtype=np.float64)
    stacked = L0.ndim == 3
    drifts = L0 if stacked else L0[None]
    W, m = drifts.shape[0], drifts.shape[-1]
    K, nl = amps.shape
    if drifts.ndim != 3 or drifts.shape[1:] != (m, m):
        raise ValueError("L0 must be square, or a stack of square generators")
    if ctrls.shape[0] != nl:
        raise ValueError("amps field count does not match control generators")
    if nl > 0 and ctrls.shape[1:] != (m, m):
        raise ValueError("control generators must match L0 shape")
    if v0.shape != (m,):
        raise ValueError("state vector length does not match generator")
    if dt.ndim and dt.shape != (W,):
        raise ValueError("dt must be one slice length, or one per drift generator")

    # one generator per run of equal consecutive rows, built from its first row;
    # 0.0 == -0.0 here, and the masked add below skips both
    new = np.ones(K, dtype=bool)
    new[1:] = (amps[1:] != amps[:-1]).any(axis=1)
    first = amps.compress(new, axis=0)
    R = len(first)

    # each generator is L0 + u_1 C_1 + u_2 C_2 + ..., added in field order and
    # skipping zero amplitudes, so it is bitwise a per-slice build
    A = np.broadcast_to(drifts[:, None], (W, R, m, m)).copy()
    for l in range(nl):
        on = first[:, l] != 0.0
        A[:, on] += first[on, l, None, None] * ctrls[l]
    # dt as complex: a float64 array would be cast anew in every inner loop
    # of the broadcast product; the product is the same either way
    A *= dt.astype(np.complex128).reshape(-1, 1, 1, 1)
    props = expm_stack(A.reshape(W * R, m, m)).reshape(W, R, m, m)

    # a batched matrix-vector product is bitwise W separate ones
    v = np.broadcast_to(v0[:, None], (W, m, 1)).copy()
    run = -1
    for starts_run in new.tolist():
        run += starts_run
        v = np.matmul(props[:, run], v)
    v = v[..., 0]
    return v if stacked else v[0]
