"""Propagation kernel: ``expm`` and final-state ``propagate_schedule``.

``propagate_schedule`` takes a register of one site or two: a qubit, two
qubits, or a qubit and an idle ancilla. The register's generator is the
Kronecker sum of its sites', so a slice's propagator is the Kronecker
product of theirs (Van Loan, "The ubiquitous Kronecker product", J. Comput.
Appl. Math. 123:85, 2000), and only the sites' own slices are exponentiated;
an idle site takes none. Slices are exponentiated by Pade scaling and
squaring, once for each run of equal consecutive rows of the register's
amplitude grid (a constant schedule, or a model without controls, is a
single run), and that propagator is applied to every slice of the run, so
on one site the final vector is bit for bit a per-slice loop's. Given a
stack of W drift generators it propagates the same schedule under each, as
the central-difference derivative needs at three frequencies, and each
generator may have its own slice length, so that one call covers the same
schedule at several encoding times: the runs are found once, and the W
generators of every run of every site go through one batched call,
``expm_stack``, whose results are bit for bit those of
``scipy.linalg.expm`` on each slice. ``scipy.linalg.expm`` walks a stack in
Python one slice at a time, and on 4x4 slices most of its time goes to that
per-slice dispatch. ``expm_stack`` sorts the slices as ``scipy.linalg.expm``
does, by their nonzero entries below and above the diagonal, and handles
every class itself with the same arithmetic:

- diagonal slices are the exponentials of their diagonals, one stacked
  ``np.exp`` for all of them;
- every other slice goes through scipy's own Pade kernels
  (``pick_pade_structure`` and ``pade_UV_calc`` from the private
  ``scipy.linalg._matfuncs_expm``), one slice at a time in one reused buffer;
- the slices of one class that share a squaring count are squared as one
  stacked product. Upper and lower triangular slices follow scipy's Code
  Fragment 2.1 of Al-Mohy & Higham (2009), which resets the diagonal and
  the first off-diagonal to their exact values around every squaring.

A private module and a copy of scipy's Python branches are no stable
interface, so a probe at import checks on slices of every class (see
``_pade_kernels_match``) that ``expm_stack`` reproduces ``scipy.linalg.expm``
bit for bit; if it does not, every stack goes whole to ``scipy.linalg.expm``.
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


def _diagonal(A, k=0):
    """The main (k = 0), first super- (k = 1) or first sub-diagonal (k = -1)
    of every slice of a (K, m, m) stack, as a (K, m - |k|) array; a view,
    so writable, when the stack is C-contiguous."""
    m = A.shape[-1]
    return A.reshape(len(A), m * m)[:, k if k >= 0 else -k * m::m + 1]


def expm_stack(A):
    """exp(A[k]) for every slice of a (K, m, m) complex128 stack, bit for bit
    ``scipy.linalg.expm`` applied to each slice."""
    if not _PADE_KERNELS:
        return scipy.linalg.expm(A)
    out = np.empty(A.shape, dtype=A.dtype)
    # scipy's expm sorts a slice by its strict lower and upper parts: neither
    # is diagonal, one is triangular, both is generic
    nonzero = A != 0
    lower, upper = _strict_triangles(A.shape[-1])
    below = (nonzero & lower).any(axis=(1, 2)).tolist()
    above = (nonzero & upper).any(axis=(1, 2)).tolist()

    diagonal = []
    groups = {}  # (squarings, below, above) -> slices
    work = np.empty((5,) + A.shape[1:], dtype=A.dtype)
    for k, (lo, up) in enumerate(zip(below, above)):
        if not (lo or up):
            diagonal.append(k)
            continue
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
        groups.setdefault((s, lo, up), []).append(k)

    if diagonal:
        out[diagonal] = 0
        _diagonal(out)[diagonal] = np.exp(_diagonal(A[diagonal]))
    # the squarings of all slices of one kind that need the same number, as
    # one stacked product
    for (s, lo, up), group in groups.items():
        if lo and up:
            if s:
                E = out[group]
                for _ in range(s):
                    E = E @ E
                out[group] = E
        else:
            out[group] = _triangular_squarings(A[group], out[group], s, upper=up)
    return out


def _triangular_squarings(A, E, s, upper):
    """Square the Pade approximants ``E`` of a stack ``A`` of upper or lower
    triangular slices that share the squaring count ``s``, and zero the other
    triangle, as ``scipy.linalg.expm`` does for one such slice.

    scipy follows Code Fragment 2.1 of Al-Mohy & Higham (2009): it resets
    the diagonal to its exact exponentials before every squaring, and after
    each the first super- or sub-diagonal too, from ``_exp_sinch``. This runs
    the same expressions on the whole stack, so each slice is bit for bit
    its own.
    """
    if s:
        diag, sd = _diagonal(A), _diagonal(A, 1 if upper else -1)
        _diagonal(E)[:] = np.exp(diag * 2**(-s))
        for i in range(s - 1, -1, -1):
            E = E @ E
            _diagonal(E)[:] = np.exp(diag * 2.**(-i))
            _diagonal(E, 1 if upper else -1)[:] = (
                _exp_sinch(diag * (2.**(-i))) * (sd * 2**(-i)))
    return np.triu(E) if upper else np.tril(E)


def _exp_sinch(x):
    """scipy's ``_exp_sinch`` on each row of a (K, m) stack: the divided
    differences (exp(x[j+1]) - exp(x[j])) / (x[j+1] - x[j]), or exp(x[j])
    where the two are equal."""
    # np.diff's subtraction of shifted slices, along each row
    lexp = np.exp(x)
    lexp_diff = lexp[:, 1:] - lexp[:, :-1]
    l_diff = x[:, 1:] - x[:, :-1]
    mask_z = l_diff == 0.
    lexp_diff[~mask_z] /= l_diff[~mask_z]
    lexp_diff[mask_z] = np.exp(x[:, :-1][mask_z])
    return lexp_diff


def _pade_kernels_match():
    """Whether scipy's private Pade kernels take the calls ``expm_stack`` makes
    and, with its stacked diagonal and triangular branches, reproduce
    ``scipy.linalg.expm`` bit for bit: on generic slices with and without
    squaring, a diagonal slice, and an upper and a lower triangular slice that
    need squaring and repeat a diagonal entry."""
    base = np.arange(16.0).reshape(4, 4) + 1j * np.arange(16.0)[::-1].reshape(4, 4)
    upper, lower = np.triu(0.5 * base), np.tril(0.5 * base)
    upper[1, 1] = upper[0, 0]
    lower[3, 3] = lower[2, 2]
    probe = np.stack([1e-3 * base, 0.5 * base, np.diag(np.diag(base)), upper, lower])
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


def _site_arrays(L0, ctrls, amps, dt):
    """The inputs of one site as arrays, checked against each other: the
    drift stack (W, m, m), the controls, the (K, L) amplitudes and dt."""
    L0 = np.asarray(L0, dtype=np.complex128)
    ctrls = np.asarray(ctrls, dtype=np.complex128)
    amps = np.asarray(amps, dtype=np.float64)
    drifts = L0 if L0.ndim == 3 else L0[None]
    W, m = drifts.shape[0], drifts.shape[-1]
    if drifts.ndim != 3 or drifts.shape[1:] != (m, m):
        raise ValueError("L0 must be square, or a stack of square generators")
    if ctrls.shape[0] != amps.shape[1]:
        raise ValueError("amps field count does not match control generators")
    if amps.shape[1] > 0 and ctrls.shape[1:] != (m, m):
        raise ValueError("control generators must match L0 shape")
    if dt.ndim and dt.shape != (W,):
        raise ValueError("dt must be one slice length, or one per drift generator")
    return drifts, ctrls, amps


def propagate_schedule(L0, ctrls, amps, dt, v0):
    """Apply exp((L0 + sum_l amps[k,l]*ctrls[l]) * dt) to v0 for k = 0..K-1
    and return the final vector.

    ``L0`` may also be a (W, m, m) stack of drift generators: the schedule
    then propagates v0 under each of them and the result is (W, m), row w
    bit for bit the call with ``L0[w]`` alone. ``dt`` is one slice length for
    all of them or W lengths, one per generator: row w is then bit for bit
    the call with ``L0[w]`` and ``dt[w]``.

    A register passes ``L0``, ``ctrls`` and ``amps`` as tuples with one entry
    per site, one site or two, and the result is always a (W, m**n) stack
    for n sites; a bare ``L0`` is a register of one site. Site s brings its
    drift, or a stack of W, in ``L0[s]`` (None for an idle site, one without
    drift, noise or controls: its propagator is the identity), its control
    generators ``ctrls[s]`` and its amplitude columns ``amps[s]``. The
    register's generator is the Kronecker sum of its sites', so a slice's
    propagator is the Kronecker product P0 (x) P1 of theirs. On two sites
    ``v0`` is in site-product order, index p0 * m + p1 for the sites' own
    vectorized indices, so that it is an m x m matrix X that a slice maps to
    P0 X P1^T.

    Every call takes the same steps: the register's runs of equal
    consecutive rows are found once, the first row of each run gives every
    active site's generators, and all of them, W per site and run, go
    through one ``expm_stack`` call. The active sites' states are stacked
    as S: v0 as an m x 1 block on one site; X and the identity on two, so
    that site 1 accumulates its product U1. Each slice steps S by one
    batched product with its run's propagators, and on two sites X U1^T is
    the final state.
    """
    if not isinstance(L0, tuple):
        v = propagate_schedule((L0,), (ctrls,), (amps,), dt, v0)
        return v if np.ndim(L0) == 3 else v[0]
    if not (len(L0) == len(ctrls) == len(amps) and len(L0) in (1, 2)):
        raise ValueError("a register has one site or two, with a drift, controls "
                         "and amplitudes for each")
    dt = np.asarray(dt, dtype=np.float64)
    sites = [_site_arrays(D, C, a, dt) for D, C, a in zip(L0, ctrls, amps) if D is not None]
    if not sites:
        raise ValueError("a register needs a site that is not idle")
    # there are at most two sites, so the last must match the first
    W, m = sites[0][0].shape[:2]
    if sites[-1][0].shape != (W, m, m):
        raise ValueError("the sites' drift stacks must have one shape")
    K = len(amps[0])
    if len(amps[-1]) != K:
        raise ValueError("the sites' amplitude grids must have one row per slice")
    v0 = np.asarray(v0, dtype=np.complex128)
    if v0.shape != (m ** len(L0),):
        raise ValueError("state vector length does not match the register")

    # the rows that start a run of equal rows on any site; 0.0 == -0.0 here,
    # and the masked add below skips both
    new = np.zeros(K, dtype=bool)
    new[:1] = True
    for _, _, site_amps in sites:
        new[1:] |= (site_amps[1:] != site_amps[:-1]).any(axis=1)
    R = np.count_nonzero(new)

    # each generator is L0 + u_1 C_1 + u_2 C_2 + ..., added in field order and
    # skipping zero amplitudes, so it is bitwise a per-slice build
    A = np.empty((len(sites), W, R, m, m), dtype=np.complex128)
    for i, (drifts, site_ctrls, site_amps) in enumerate(sites):
        site_A = A[i]
        site_A[:] = drifts[:, None]
        first = site_amps.compress(new, axis=0)
        for l in range(first.shape[1]):
            on = first[:, l] != 0.0
            site_A[:, on] += first[on, l, None, None] * site_ctrls[l]
    # dt as complex: a float64 array would be cast anew in every inner loop
    # of the broadcast product; the product is the same either way
    A *= dt.astype(np.complex128).reshape(-1, 1, 1, 1)
    props = expm_stack(A.reshape(-1, m, m)).reshape(-1, R, m, m)

    if len(L0) == 1:
        S = np.repeat(v0[None, :, None], W, axis=0)
    else:
        X = np.repeat(v0.reshape(1, m, m), W, axis=0)
        S = np.concatenate([X if s == 0 else np.broadcast_to(np.eye(m), X.shape)
                            for s in range(2) if L0[s] is not None])
    # a batched product is bitwise its separate ones
    run = -1
    for starts_run in new.tolist():
        run += starts_run
        S = np.matmul(props[:, run], S)
    if len(L0) == 1:
        return S[..., 0]
    if L0[0] is not None:
        X = S[:W]
    if L0[1] is not None:
        X = np.matmul(X, S[-W:].swapaxes(1, 2))
    return X.reshape(W, m * m)
