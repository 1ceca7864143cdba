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
stack of N grids such as a simplex's points, whose runs and generators are
found and built once for the whole register and every grid.

A run of R equal consecutive rows of the register's amplitude grid is one
constant generator, exponentiated once over the run's whole duration, exp(R
dt A), and applied in one step; a constant schedule is a single run. Given
W drift generators, each with its own slice length, one call propagates the
same schedule under each, so it covers several encoding times: the W
generators of every run of every site go through one ``expm_stack`` call,
bit for bit ``scipy.linalg.expm`` on each slice. Given N grids, one pass
finds every grid's runs; a site's generator depends only on its amplitudes
in the run's first row and the run's length, so runs of several grids that
share them, as a simplex's points share all but one row, share one
generator, built and exponentiated once. The grids are then stepped
together, one batched product per run index over every grid that has a
run there, and each grid's states are bit for bit its own call's. ``expm_stack`` sorts the
slices as scipy does, by their nonzero entries below and above the
diagonal. A generic slice, as every slice a run exponentiates is, takes
scipy's own Pade kernels (``pick_pade_structure`` and ``pade_UV_calc`` from
the private ``scipy.linalg._matfuncs_expm``) in its own work block, 64
slices' blocks filled at a time, so those two calls are nearly all of its
per-slice Python; the slices that share a squaring count are squared as
one stacked product. A diagonal or triangular slice goes to
``scipy.linalg.expm`` itself.

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


def _distinct(keys):
    """For the columns of a 2-D uint64 array: the index of one column of each
    distinct value, and each column's position in that list.

    The columns are sorted by a hash of their bits, and a column that differs
    from the one before it starts a new value, so two columns share a value
    only when they are equal; two equal columns that a hash collision
    separates merely keep two entries."""
    mix = (np.arange(len(keys), dtype=np.uint64) * 2 + 1) * np.uint64(0x9E3779B97F4A7C15)
    order = np.argsort(mix @ keys)
    ordered = keys[:, order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    new[1:] = np.logical_or.reduce(ordered[:, 1:] != ordered[:, :-1], axis=0)
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.cumsum(new) - 1
    return order[new], position


def _site_arrays(L0, ctrls, amps, dt):
    """The inputs of one site as arrays, checked against each other: the
    drift stack (W, m, m), the controls, the (K, L) amplitudes or a stack of
    N such grids, and dt."""
    L0, ctrls = np.asarray(L0), np.asarray(ctrls)
    amps = np.asarray(amps, dtype=np.float64)
    drifts = L0 if L0.ndim == 3 else L0[None]
    W, m = drifts.shape[0], drifts.shape[-1]
    if drifts.ndim != 3 or drifts.shape[1:] != (m, m):
        raise ValueError("L0 must be square, or a stack of square generators")
    if amps.ndim not in (2, 3) or 0 in amps.shape[:-1]:
        raise ValueError("amps must be a (K, L) grid with K >= 1, or a stack of one or more")
    if ctrls.shape[0] != amps.shape[-1]:
        raise ValueError("amps field count does not match control generators")
    if amps.shape[-1] > 0 and ctrls.shape[1:] != (m, m):
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
    the call with ``L0[w]`` and ``dt[w]``. ``amps`` may also be an (N, K, L)
    stack of N grids: the result then has a leading axis of N, and its row
    (i, w) is bit for bit the call with ``amps[i]`` and ``L0[w]``.

    A register passes ``L0``, ``ctrls`` and ``amps`` as tuples with one entry
    per site, one site or two, and the result is always a (W, m**n) stack
    for n sites, or (N, W, m**n) for N grids; a bare ``L0`` is a register of
    one site. Site s brings its drift, or a stack of W, in ``L0[s]`` (None
    for an idle site, one without drift, noise or controls: its propagator
    is the identity), its control generators ``ctrls[s]`` and its amplitude
    columns ``amps[s]``, a grid or a stack of N. The register's generator is
    the Kronecker sum of its sites', so a slice's propagator is the
    Kronecker product P0 (x) P1 of theirs. On two sites ``v0`` is in
    site-product order, index p0 * m + p1 for the sites' own indices, so
    that it is an m x m matrix X that a slice maps to P0 X P1^T.

    After the input checks, each step is taken once for the whole call:
    one pass over the active sites' amplitudes, side by side, finds every
    grid's runs of equal consecutive rows; one assembly builds every active
    site's generator from a run's first row and scales it by the run's
    duration; and all of them, W per site and run, go through one
    ``expm_stack`` call. Of N > 1 grids, such as a simplex's points, the runs
    that give one site the same amplitudes (bit for bit) and length share
    one generator, exponentiated once; one grid alone skips that search. A
    scaled generator that is not finite is not exponentiated: its
    propagator, and so its final state, is NaN. The active sites' states are
    stacked as S: v0 as an m x 1 block on one site; X and the identity on
    two, so that site 1 accumulates its product U1. Run index r steps S by
    one batched product with the r-th runs' propagators of every grid that
    has more than r runs, the grids with the most runs first, and on two
    sites X U1^T is the final state. The result is real when the generators
    and v0 are.
    """
    if not isinstance(L0, tuple):
        v = propagate_schedule((L0,), (ctrls,), (amps,), dt, v0)
        return v if np.ndim(L0) == 3 else v[..., 0, :]
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
    lead = np.shape(amps[0])[:-1]
    if np.shape(amps[-1])[:-1] != lead:
        raise ValueError("the sites' amplitude grids must have one row per slice, "
                         "and as many grids")
    N, K = lead if len(lead) == 2 else (1,) + lead
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

    # the rows that start a run of equal rows anywhere in the register, and
    # K after them, so that their differences are the runs' lengths, at flat
    # positions g * (K + 1) + k for row k of grid g; 0.0 == -0.0 here, and a
    # zero amplitude adds nothing below
    rows = grid.reshape(N, K, n * L)
    edges = np.empty((N, K + 1), dtype=bool)
    edges[:, ::K] = True
    edges[:, 1:K] = np.logical_or.reduce(rows[:, 1:] != rows[:, :-1], axis=2)
    edges = edges.ravel().nonzero()[0]
    starts, lengths = edges[:-1], edges[1:] - edges[:-1]
    if N == 1:
        # a generator per site and run: each site's amplitudes in the run's
        # first row, (n, R, L), and the runs' lengths
        first, lengths = grid[0, starts].swapaxes(0, 1), lengths[None]
    else:
        # every grid's runs, g and k their grid and first row, and per site
        # one generator for each distinct pair of its run's amplitudes (their
        # bits) and length; the sites' lists are padded to one length by
        # repeating entries, which are built but not exponentiated
        keep = starts % (K + 1) < K
        starts, lengths = starts[keep], lengths[keep]
        g, k = np.divmod(starts, K + 1)
        first = grid[g, k].swapaxes(0, 1)
        bits = np.empty((n, L + 1, len(starts)), dtype=np.uint64)
        bits[:, 0], bits[:, 1:] = lengths, first.view(np.uint64).swapaxes(1, 2)
        distinct = [_distinct(b) for b in bits]
        sizes = np.array([len(i) for i, _ in distinct])
        pick = np.array([np.resize(i, sizes.max()) for i, _ in distinct])
        first = np.take_along_axis(first, pick[..., None], axis=1)
        lengths = lengths[pick]

    # each generator is L0 + u_1 C_1 + u_2 C_2 + ..., added in field order; a
    # zero amplitude adds -0.0 (-0.0 - 0.0j), which leaves every number as it
    # is, so it is bitwise a per-slice build that skips zero amplitudes
    U = first.shape[1]
    terms = first[..., None, None] * C[:, None]
    np.copyto(terms, complex(-0.0, -0.0) if dtype.kind == "c" else -0.0,
              where=(first == 0.0)[..., None, None])
    A = np.empty((n, W, U, m, m), dtype=dtype)
    for s, (drifts, _, _) in enumerate(sites):
        A[s] = drifts[:, None]
    for l in range(L):
        A += terms[:, None, :, l]
    # a run's duration, its length times dt, scales its generator; a
    # generator that overflows here is caught below, not warned about
    duration = dt.reshape(-1, 1) * lengths[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        A *= duration.astype(dtype)[..., None, None]
    if N == 1:
        A = A.reshape(-1, m, m)
    else:  # each site's distinct generators, in site order
        A = A.swapaxes(1, 2)[np.arange(U) < sizes[:, None]].reshape(-1, m, m)
    if np.isfinite(A).all():
        props = expm_stack(A)
    else:
        finite = np.isfinite(A).all(axis=(1, 2))
        props = np.full_like(A, np.nan)
        props[finite] = expm_stack(A[finite])

    # the propagators of each run index r, n * W per grid that has a run r:
    # the grids are stepped with the most runs first, so those are a prefix
    if N == 1:
        steps, rank = props.reshape(n * W, U, m, m).swapaxes(0, 1), None
    else:
        counts = np.bincount(g, minlength=N)
        order = np.argsort(-counts, kind="stable")
        rank = np.empty(N, dtype=np.intp)
        rank[order] = np.arange(N)
        R = counts.max()
        r = np.arange(len(g)) - (np.cumsum(counts) - counts)[g]
        index = np.zeros((R, N, n), dtype=np.intp)
        index[r, rank[g]] = np.array([inverse.ravel() for _, inverse in distinct]).T
        index += np.cumsum(sizes) - sizes
        active = (counts[:, None] > np.arange(R)).sum(axis=0).tolist()
        props = props.reshape(-1, W, m, m)
        steps = (props[i[:a]].reshape(-1, m, m) for i, a in zip(index, active))

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
        return X[0]
    return X if rank is None else X[rank]
