"""Propagation kernel: ``expm`` and final-state ``propagate_schedule``.

``propagate_schedule`` takes a register of one site or two: a qubit, two
qubits, or a qubit and an idle ancilla. The register's generator is the
Kronecker sum of its sites', so a slice's propagator is the Kronecker
product of theirs (Van Loan, "The ubiquitous Kronecker product", J. Comput.
Appl. Math. 123:85, 2000), and only the sites' own generators are
exponentiated; an idle site takes none. The generators may be real, as the
package's 8x8 Van Loan blocks are (see :mod:`lindmet.propagation`), or
complex; the arithmetic follows their dtype. A prepared probe builds its
drifts and state once and then makes one call per amplitude grid, or per
stack of N grids such as a round of a control search's points, whose runs
and generators are found and built once for the whole register and every
grid.

A run of R equal consecutive rows of the register's amplitude grid is one
constant generator, exponentiated once over the run's whole duration, exp(R
dt A), and applied in one step; a constant schedule is a single run. Each
site has one drift. Given W slice lengths, one call propagates one grid
over each, so it covers several encoding times: the W scaled generators of
every run of every site go through one ``expm_stack`` call, bit for bit
``scipy.linalg.expm`` on each slice. Given N grids, each with its own slice
length, one pass finds every grid's runs; a site's generator depends only
on its amplitudes in the run's first row and the run's duration, so runs
of several grids that share them, as a simplex's points share all but one
row, share one generator, built and exponentiated once. The grids are
then stepped together, one batched product per run index over every grid
that has a run there, and each grid's state is bit for bit its own
call's.

``expm_stack`` sorts the slices as scipy does, by their nonzero entries
below and above the diagonal. A generic slice, as every slice a run
exponentiates is, takes scipy's own Pade kernels (``pick_pade_structure``
and ``pade_UV_calc`` from the private ``scipy.linalg._matfuncs_expm``) in
its own work block, 64 slices' blocks filled at a time, so those two calls
are nearly all of its per-slice Python; the slices that share a squaring
count are squared as one stacked product. A diagonal or triangular slice
goes to ``scipy.linalg.expm`` itself.

A private module is no stable interface, so a probe at import checks on
generic complex and real slices (see ``_pade_kernels_match``) that
``expm_stack`` reproduces ``scipy.linalg.expm`` bit for bit; if it does
not, every stack goes whole to ``scipy.linalg.expm``.
"""
import functools

import numpy as np
import scipy.linalg
from scipy.linalg import _matfuncs_expm

# The kernel's name, which every result file records as its "## kernel" line.
# It is fixed: older result files and their readers expect the line.
BACKEND = "python"

# np.result_type converts a dtype much faster than the scalar type
_FLOAT = np.dtype(np.float64)

_PADE_KERNELS = True  # on while the probe below runs; the probe then decides


@functools.lru_cache(maxsize=None)
def _strict_triangles(m):
    """The flat indices of an m x m matrix's strict lower and upper parts, as two rows."""
    lower = np.tri(m, k=-1, dtype=bool)
    return np.stack([np.flatnonzero(lower), np.flatnonzero(lower.T)])


def expm_stack(A):
    """exp(A[k]) for every slice of a (K, m, m) float64 or complex128 stack,
    bit for bit ``scipy.linalg.expm`` applied to each slice."""
    if not _PADE_KERNELS:
        return scipy.linalg.expm(A)
    # scipy's expm sorts a slice by its strict lower and upper parts: both
    # nonzero is generic, and only a generic slice takes the Pade kernels
    m = A.shape[-1]
    generic = np.logical_and.reduce(np.logical_or.reduce(
        A.reshape(-1, m * m).take(_strict_triangles(m), axis=1), axis=2), axis=1)
    every = np.logical_and.reduce(generic)
    # 64 slices at a time, each in the first matrix of its own work block as
    # scipy's is, so the work array has a fixed size
    work = np.empty((min(len(A), 64), 5) + A.shape[1:], dtype=A.dtype)
    out = np.empty_like(A)
    groups = {}  # squarings -> the slices that need them
    for c in range(0, len(A), 64):
        n = min(64, len(A) - c)
        work[:n, 0] = A[c:c + n]
        for k in range(n) if every else np.flatnonzero(generic[c:c + n]).tolist():
            w = work[k]
            order, s = _matfuncs_expm.pick_pade_structure(w)
            if order < 0:
                raise MemoryError("scipy.linalg.expm could not allocate sufficient memory while "
                                  f"trying to compute the Pade structure (error code {order}).")
            info = _matfuncs_expm.pade_UV_calc(w, order)
            if info != 0:
                if info <= -11:
                    raise MemoryError("scipy.linalg.expm could not allocate sufficient memory "
                                      "while trying to compute the exponential (error code "
                                      f"{info}).")
                raise RuntimeError("scipy.linalg.expm got an internal LAPACK error during the "
                                   f"exponential computation (error code {info})")
            if s:
                groups.setdefault(s, []).append(c + k)
        out[c:c + n] = work[:n, 0]
    if not every:
        out[~generic] = scipy.linalg.expm(A[~generic])
    # the squarings of all slices that need the same number, as one stacked product
    for s, group in groups.items():
        E = out[group]
        for _ in range(s):
            E = E @ E
        out[group] = E
    return out


def _pade_kernels_match():
    """Whether scipy's private Pade kernels take the calls ``expm_stack`` makes
    and reproduce ``scipy.linalg.expm`` bit for bit on generic slices, with
    and without squaring: complex 4x4 ones, and real 8x8 Van Loan blocks
    [[a, 0], [d, a]]."""
    base = np.arange(16.0).reshape(4, 4) + 1j * np.arange(16.0)[::-1].reshape(4, 4)
    a = np.arange(16.0).reshape(4, 4) % 5 - 2
    block = np.block([[a, np.zeros((4, 4))], [np.eye(4), a]])
    probes = [np.stack([1e-3 * base, 0.5 * base]), np.stack([1e-3 * block, 2.0 * block])]
    try:
        got = [expm_stack(p) for p in probes]
    except (TypeError, ValueError):  # a changed signature or buffer layout
        return False
    return all(np.array_equal(g.view(np.uint64), scipy.linalg.expm(p).view(np.uint64))
               for g, p in zip(got, probes))


_PADE_KERNELS = _pade_kernels_match()


def expm(a):
    """Matrix exponential of a square complex matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix")
    return expm_stack(a[None])[0]


@functools.lru_cache(maxsize=None)
def _hash_weights(c):
    """Odd weights for keys of c words: a key's hash is the sum of its words
    times these, modulo 2**64."""
    return (np.arange(c, dtype=np.uint64) * 2 + 1) * np.uint64(0x9E3779B97F4A7C15)


def _distinct(keys, sites):
    """For an (R, c) uint64 array of R keys of c words, the keys of
    ``sites`` sites one after another, R / sites each: the index of one key
    of each distinct value, a site's values before the next site's, and
    each key's position in that list.

    The keys are sorted by a hash of their bits, whose top bit is their
    site's, and a key that differs from the one before it, or belongs to
    another site, starts a new value, so two keys share a value only when
    they are equal and on one site; two equal keys that a hash collision
    separates merely keep two entries."""
    h = (keys @ _hash_weights(keys.shape[1])) >> np.uint64(1)
    if sites > 1:
        h[len(h) // 2:] |= np.uint64(1 << 63)
    order = np.argsort(h)
    ordered, h = keys[order], h[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.logical_or(h[1:] != h[:-1], np.logical_or.reduce(ordered[1:] != ordered[:-1], axis=1),
                  out=new[1:])
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.cumsum(new) - 1
    return order[new], position


def _add_controls(A, u, C):
    """Add u_1 C_1 + u_2 C_2 + ... to the generators A (..., m, m), for the
    amplitudes u (..., L) and controls C (..., L, m, m) broadcast against it.

    The terms are added in field order; a zero amplitude adds -0.0
    (-0.0 - 0.0j), which leaves every number as it is, so each generator is
    bitwise a per-slice build that skips zero amplitudes."""
    terms = u[..., None, None] * C
    np.copyto(terms, complex(-0.0, -0.0) if A.dtype.kind == "c" else -0.0,
              where=(u == 0.0)[..., None, None])
    for l in range(u.shape[-1]):
        A += terms[..., l, :, :]


def _site_arrays(L0, ctrls, amps):
    """The inputs of one site as arrays, checked against each other: the
    drift (m, m), the controls, and the (K, L) amplitudes or a stack of N
    such grids."""
    L0, ctrls = np.asarray(L0), np.asarray(ctrls)
    amps = np.asarray(amps, dtype=np.float64)
    if L0.ndim != 2 or L0.shape[0] != L0.shape[1]:
        raise ValueError("L0 must be square, one (m, m) drift per site")
    if amps.ndim not in (2, 3) or 0 in amps.shape[:-1]:
        raise ValueError("amps must be a (K, L) grid with K >= 1, or a stack of one or more")
    if ctrls.shape[0] != amps.shape[-1]:
        raise ValueError("amps field count does not match control generators")
    if amps.shape[-1] > 0 and ctrls.shape[1:] != L0.shape:
        raise ValueError("control generators must match L0 shape")
    return L0, ctrls, amps


def propagate_schedule(L0, ctrls, amps, dt, v0):
    """Apply exp((L0 + sum_l amps[k,l]*ctrls[l]) * dt) to v0 for k = 0..K-1
    and return the final vector.

    ``dt`` is one slice length, or for one (K, L) grid a 1-D array of W
    lengths: the result is then (W, m), row w bit for bit the call with
    ``dt[w]``, as a schedule at several encoding times needs. ``amps`` may
    also be an (N, K, L) stack of N grids, and ``dt`` then one length for
    all of them or N lengths, one per grid: the result is (N, m), row i bit
    for bit the call with ``amps[i]`` and its own length.

    A register passes ``L0``, ``ctrls`` and ``amps`` as tuples with one entry
    per site, one site or two, and the state is then m**n long for n sites;
    a bare ``L0`` is a register of one site. Site s brings its (m, m) drift
    in ``L0[s]`` (None for an idle site, one without drift, noise or
    controls: its propagator is the identity), its control generators
    ``ctrls[s]`` and its amplitude columns ``amps[s]``, a grid or a stack
    of N. The register's generator is the Kronecker sum of its sites', so a
    slice's propagator is the Kronecker product P0 (x) P1 of theirs. On two
    sites ``v0`` is in site-product order, index p0 * m + p1 for the sites'
    own indices, so that it is an m x m matrix X that a slice maps to
    P0 X P1^T.

    After the input checks, each step is taken once for the whole call:
    one pass over the active sites' amplitudes, side by side, finds every
    grid's runs of equal consecutive rows; one assembly builds every active
    site's generator from a run's first row and scales it by the run's
    duration, its length times its grid's slice length; and all of them go
    through one ``expm_stack`` call. One grid takes each of its runs' W
    durations. Of N > 1 grids, such as a round of simplex points, the runs
    that give one site the same amplitudes and the same duration (bit for
    bit) share one generator, exponentiated once: a simplex's points share
    all but one row, and one grid repeated at one length shares them all,
    while equal grids at two lengths share none. A scaled generator that is
    not finite is not exponentiated: its propagator, and so its final
    state, is NaN. The active sites' states are stacked as S: v0 as an
    m x 1 block on one site; X and the identity on two, so that site 1
    accumulates its product U1. Run index r steps S by one batched product
    with the r-th runs' propagators of every grid that has more than r runs,
    the grids with the most runs first, and on two sites X U1^T is the final
    state. The result is real when the generators and v0 are.
    """
    if not isinstance(L0, tuple):
        return propagate_schedule((L0,), (ctrls,), (amps,), dt, v0)
    if not (len(L0) == len(ctrls) == len(amps) and len(L0) in (1, 2)):
        raise ValueError("a register has one site or two, with a drift, controls "
                         "and amplitudes for each")
    sites = [_site_arrays(D, C, a) for D, C, a in zip(L0, ctrls, amps) if D is not None]
    if not sites:
        raise ValueError("a register needs a site that is not idle")
    # there are at most two sites, so the last must match the first
    m = len(sites[0][0])
    if sites[-1][0].shape != (m, m):
        raise ValueError("the sites' drifts must have one shape")
    lead = np.shape(amps[0])[:-1]
    if np.shape(amps[-1])[:-1] != lead:
        raise ValueError("the sites' amplitude grids must have one row per slice, "
                         "and as many grids")
    N, K = lead if len(lead) == 2 else (1,) + lead
    dt = np.asarray(dt, dtype=np.float64)
    if dt.ndim > 1 or (len(lead) == 2 and dt.ndim and dt.shape != (N,)):
        raise ValueError("dt must be one slice length, W of them for one grid, "
                         "or one per grid of a stack")
    v0 = np.asarray(v0)
    if v0.shape != (m ** len(L0),):
        raise ValueError("state vector length does not match the register")

    # the active sites' fields side by side in one (N, K, n, L) stack of
    # grids, a site with fewer fields padded with zero amplitudes, and their
    # controls
    n, L = len(sites), max(a.shape[-1] for _, _, a in sites)
    dtype = np.result_type(_FLOAT, *(a for D, C, _ in sites for a in (D, C)))
    grid, C = np.zeros((N, K, n, L)), np.zeros((n, L, m, m), dtype)
    for s, (_, site_ctrls, site_amps) in enumerate(sites):
        f = site_amps.shape[-1]
        grid[..., s, :f], C[s, :f] = site_amps, site_ctrls.reshape(f, m, m)

    # the rows that start a run of equal rows anywhere in the register, at
    # flat positions g * K + k for row k of grid g; every grid's first row
    # starts one, so a run ends where the next one starts. 0.0 == -0.0 here,
    # and a zero amplitude adds nothing to a generator
    rows = grid.reshape(N, K, n * L)
    edges = np.empty((N, K), dtype=bool)
    edges[:, 0] = True
    edges[:, 1:] = np.logical_or.reduce(rows[:, 1:] != rows[:, :-1], axis=2)
    starts = edges.ravel().nonzero()[0]
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1] = N * K - starts[-1]
    first = grid.reshape(N * K, n, L)[starts]
    # a run's duration, its length times the slice length, scales its
    # generator; a generator that overflows here is caught below, not warned
    # about
    if N == 1:
        # per site and run a generator, from the site's amplitudes in the
        # run's first row, scaled by each of the W durations: (n, W, R)
        W = dt.size
        A = np.empty((n, len(starts), m, m), dtype=dtype)
        for s, (drift, _, _) in enumerate(sites):
            A[s] = drift
        _add_controls(A, first.swapaxes(0, 1), C[:, None])
        duration = dt.reshape(-1, 1) * lengths
        with np.errstate(over="ignore", invalid="ignore"):
            A = A[:, None] * duration.astype(dtype)[..., None, None]
    else:
        # per site one generator for each distinct pair of a run's
        # amplitudes and its duration (their bits), over every run of every
        # grid, g being the run's grid; the sites' generators in site order
        W = 1
        g = starts // K
        duration = (dt[g] if dt.ndim else dt) * lengths
        keys = np.empty((n, len(starts), L + 1), dtype=np.uint64)
        keys[..., 0], keys[..., 1:] = duration.view(np.uint64), first.view(np.uint64).swapaxes(0, 1)
        pick, position = _distinct(keys.reshape(-1, L + 1), n)
        site, run = np.divmod(pick, len(starts))
        A = np.empty((len(pick), m, m), dtype=dtype)
        bounds = np.searchsorted(site, np.arange(n + 1)).tolist()
        for s, (drift, _, _) in enumerate(sites):
            a, b = bounds[s], bounds[s + 1]
            A[a:b] = drift
            _add_controls(A[a:b], first[run[a:b], s], C[s])
        with np.errstate(over="ignore", invalid="ignore"):
            A *= duration[run].astype(dtype)[:, None, None]
    A = A.reshape(-1, m, m)
    if np.isfinite(A).all():
        props = expm_stack(A)
    else:
        finite = np.isfinite(A).all(axis=(1, 2))
        props = np.full_like(A, np.nan)
        props[finite] = expm_stack(A[finite])

    # the propagators of each run index r, n * W per grid that has a run r:
    # the grids are stepped with the most runs first, so those are a prefix
    if N == 1:
        steps, rank = props.reshape(n * W, -1, m, m).swapaxes(0, 1), None
    else:
        runs = np.cumsum(edges, axis=1)
        counts = runs[:, -1]
        order = np.argsort(-counts, kind="stable")
        rank = np.empty(N, dtype=np.intp)
        rank[order] = np.arange(N)
        R = counts[order[0]]
        index = np.zeros((R, N, n), dtype=np.intp)
        index[runs.ravel()[starts] - 1, rank[g]] = position.reshape(n, -1).T
        active = (counts[:, None] > np.arange(R)).sum(axis=0).tolist()
        # one gather of every step's propagators
        props = props[index].reshape(R, N * n, m, m)
        steps = (P[:a * n] for P, a in zip(props, active))

    cols = 1 if len(L0) == 1 else m
    S = np.zeros((N, n, W, m, cols), dtype=np.result_type(v0, _FLOAT))
    if len(L0) == 2:
        S.reshape(-1, m * m)[:, ::m + 1] = 1.0
    if L0[0] is not None:
        S[:, 0] = v0.reshape(m, cols)
    S = S.reshape(-1, m, cols)
    # a batched product is bitwise its separate ones
    for P in steps:
        if len(P) == len(S):
            S = np.matmul(P, S)
        else:
            S[:len(P)] = np.matmul(P, S[:len(P)])
    S = S.reshape(N, n, W, m, cols)
    if len(L0) == 1:
        X = S[:, 0, ..., 0]
    else:
        X = S[:, 0] if L0[0] is not None else v0.reshape(m, m)
        if L0[1] is not None:
            X = np.matmul(X, S[:, -1].swapaxes(-1, -2))
        X = X.reshape(N, W, m * m)
    if len(lead) == 1:
        return X[0] if dt.ndim else X[0, 0]
    return X[:, 0] if rank is None else X[rank, 0]
