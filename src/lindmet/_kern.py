"""Propagation kernel: ``expm`` and final-state ``propagate_schedule``.

``propagate_schedule`` takes a register of one site or two: a qubit, two
qubits, or a qubit and an idle ancilla. The register's generator is the
Kronecker sum of its sites', so a slice's propagator is the Kronecker
product of theirs (Van Loan, "The ubiquitous Kronecker product", J. Comput.
Appl. Math. 123:85, 2000), and only the sites' own generators are
exponentiated; an idle site takes none. The generators may be real, as the
package's 8x8 Van Loan blocks are (see :mod:`lindmet.propagation`), or
complex; the arithmetic follows their dtype. A call takes one amplitude
grid at one slice length, or a stack of N grids with one slice length per
grid, which covers several encoding times: a fixed scheme's grid at each
of them, or a round of a control search's points. A prepared probe builds
its drifts and state once and then makes one call per stack.

A run of R equal consecutive rows of the register's amplitude grid is one
constant generator, exponentiated once over the run's whole duration, exp(R
dt A), and applied in one step; a constant schedule is a single run. Each
site has one drift. One pass finds every grid's runs and lays them out in
step order with one stable sort by their index in their grid: run r of
every grid, in grid order, before run r + 1 of any. Each active site builds
one generator per run, in that order, one field at a time on every entry,
and all of them go through one ``expm_stack`` call. The grids are then
stepped together, one batched product per run index on a slice of the
exponentials: every grid while each has a run there, then the grids that
still have one. Each grid's state is bit for bit its own call's; nothing is
kept between calls.

``expm_stack`` is numpy only: a scaling-and-squaring Taylor exponential
of degree 18. Each slice A is scaled by 2^-s until ||A/2^s||_1 <= 1.09,
the degree-18 bound for a backward error below double precision
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31:970, 2009; Bader, Blanes &
Casas, Mathematics 7:1174, 2019), the polynomial is evaluated in
Paterson-Stockmeyer blocks of six powers, seven batched products, and the
result is squared s times. Slices are taken 64 at a time, sorted by their
squaring count so that the slices that need another squaring are a prefix,
and each product is one batched ``matmul``; a batched product is bitwise
its separate ones, so every slice's exponential is bit for bit the one a
stack of that slice alone gives.
"""
import math

import numpy as np

# The kernel's name, which every result file records as its "## kernel" line.
# It is fixed: older result files and their readers expect the line.
BACKEND = "python"

# np.result_type converts a dtype much faster than the scalar type
_FLOAT = np.dtype(np.float64)

# the 1-norm up to which the degree-18 Taylor polynomial needs no squaring
_THETA_18 = 1.09
# the Taylor coefficients 1/k!, k = 0..18, as Paterson-Stockmeyer blocks:
# row j holds those of X^0..X^5 in the factor of X^6j, and the last row
# also that of X^18 = X^6 X^6 X^6
_TAYLOR_BLOCKS = np.zeros((3, 7))
for _k in range(19):
    _TAYLOR_BLOCKS[min(_k // 6, 2), _k - 6 * min(_k // 6, 2)] = 1 / math.factorial(_k)
_CHUNK = 64
# the most squarings a slice takes. Each can double a rounding error that the
# dynamics does not damp, as a noiseless rotation's is not, and 2**33 times
# the unit roundoff is 9.5e-7: a slice that needs more is NaN, not silently
# wrong past its sixth digit
_MAX_SQUARINGS = 33


def expm_stack(A):
    """exp(A[k]) for every slice of a (K, m, m) float64 or complex128 stack.

    Each slice is its own: the result's slice k is bit for bit
    ``expm_stack(A[k:k + 1])[0]``. A slice whose 1-norm needs more than
    ``_MAX_SQUARINGS`` squarings (1.09 * 2**33, about 9.4e9, or more) or is not
    a finite float, such as one with a NaN or infinite entry, is NaN. A
    result overflows to inf or NaN where its exponential does, and no
    floating-point warning escapes."""
    A = np.asarray(A)
    out = np.empty(A.shape, dtype=A.dtype)
    m = A.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.maximum.reduce(np.add.reduce(np.abs(A), axis=1), axis=1) / _THETA_18
        # a slice needs the fewest squarings s with ||A / 2^s||_1 < _THETA_18;
        # one that needs more than _MAX_SQUARINGS, or whose 1-norm is not
        # finite, is NaN
        taken = x < 2.0 ** _MAX_SQUARINGS
        out[~taken] = np.nan
        s = np.maximum(np.frexp(np.where(taken, x, 0.0))[1], 0)
        # the slices to exponentiate, those that need the most squarings first
        order = np.argsort(np.where(taken, -s, 1), kind="stable")[:np.count_nonzero(taken)]
        s = s[order]
        scale = np.ldexp(1.0, -s)[:, None, None]
        blocks = _TAYLOR_BLOCKS.astype(A.dtype)
        # a piece's identities, then its X, X^2, ..., X^6, each a stack
        work = np.empty((7, min(len(order), _CHUNK), m, m), dtype=A.dtype)
        work[0] = np.eye(m)
        for c in range(0, len(order), _CHUNK):
            pick, sc = order[c:c + _CHUNK], s[c:c + _CHUNK]
            powers = work[:, :len(pick)]
            _, X, X2, X3, X4, X5, X6 = powers
            np.multiply(A[pick], scale[c:c + _CHUNK], out=X)
            np.matmul(X, X, out=X2)
            np.matmul(X2, X, out=X3)
            np.matmul(X2, X2, out=X4)
            np.matmul(X4, X, out=X5)
            np.matmul(X3, X3, out=X6)
            # the three blocks' polynomials in X, one product per slice, then
            # Horner in X^6
            P = np.matmul(blocks, powers.reshape(7, -1, m * m).swapaxes(0, 1))
            P = P.reshape(-1, 3, m, m)
            np.matmul(X6, P[:, 2], out=X2)
            X2 += P[:, 1]
            E, spare = X3, X4
            np.matmul(X6, X2, out=E)
            E += P[:, 0]
            # the slices that need a j-th squaring lead the piece
            for j in range(1, int(sc[0]) + 1):
                k = int(np.count_nonzero(sc >= j))
                np.matmul(E[:k], E[:k], out=spare[:k])
                E[:k] = spare[:k]
            out[pick] = E
    return out


def expm(a):
    """Matrix exponential of a square complex matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix")
    return expm_stack(a[None])[0]


def _assemble(out, drift, ctrls, u, duration):
    """Write (drift + u[0, i] ctrls[0] + u[1, i] ctrls[1] + ...) * duration[i]
    to out[i], flat, for the (L, R) amplitudes u, one column per generator,
    and the (R,) durations; drift and ctrls have out's dtype.

    Bit for bit, this is a build per generator that adds the terms in
    field order, skips zero amplitudes and then scales: every entry of out
    takes the sum in place, one field at a time, and a zero amplitude adds
    -0.0 (-0.0 - 0.0j), which leaves every number as it is, so a signed
    zero, or a non-finite amplitude or duration, comes out as that build
    makes it."""
    mm = out.shape[-1]
    out[...] = drift.reshape(mm)
    term = np.empty_like(out)
    for C, a in zip(ctrls.reshape(-1, mm), u):
        np.multiply(C, a[:, None], out=term)
        zero = a == 0.0
        if zero.any():
            term[zero] = complex(-0.0, -0.0) if out.dtype.kind == "c" else -0.0
        out += term
    out *= duration[:, None]


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

    ``amps`` may also be an (N, K, L) stack of N grids, and ``dt`` then N
    slice lengths, one per grid: the result is (N, m), row i bit for bit
    the call with ``amps[i]`` and ``dt[i]``. Several encoding times are
    such a stack, a grid's copy at each time's slice length.

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

    A scaled generator that is not finite is not exponentiated: its
    propagator, and so its grid's final state, is NaN. The result is real
    when the generators and v0 are.
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
    dt = np.asarray(dt, dtype=np.float64)
    if dt.shape != lead[:-1]:
        raise ValueError("dt must be one slice length for a grid, or one per grid of a stack")
    v0 = np.asarray(v0)
    if v0.shape != (m ** len(L0),):
        raise ValueError("state vector length does not match the register")

    # each active site's rows, (N * K, L_s), grid g's row k at g * K + k
    N, K = dt.size, lead[-1]
    n = len(sites)
    rows = [a.reshape(N * K, a.shape[-1]) for _, _, a in sites]
    # the rows that start a run of equal rows anywhere in the register: every
    # grid's first row starts one, so a run ends where the next one starts.
    # 0.0 == -0.0 here, and a zero amplitude adds nothing to a generator
    register = (rows[0] if n == 1 else np.concatenate(rows, axis=1)).reshape(N, K, -1)
    edges = np.empty((N, K), dtype=bool)
    edges[:, 0] = True
    np.logical_or.reduce(register[:, 1:] != register[:, :-1], axis=2, out=edges[:, 1:])
    starts = edges.ravel().nonzero()[0]
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1] = N * K - starts[-1]
    # step order: step r takes run r of each grid that has more than r runs,
    # in grid order
    counts = np.add.reduce(edges, axis=1)
    order = np.argsort(np.arange(len(starts)) - np.repeat(np.cumsum(counts) - counts, counts),
                       kind="stable")
    starts, lengths = starts[order], lengths[order]

    # per active site, each run's generator in step order from its first
    # row, scaled by its duration, its length times its grid's slice length;
    # one that overflows here is not warned about, and expm_stack makes its
    # exponential NaN
    dtype = np.result_type(_FLOAT, *(x for D, C, _ in sites for x in (D, C)))
    A = np.empty((n, len(starts), m * m), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        duration = dt.reshape(N)[starts // K] * lengths
        for s, ((drift, site_ctrls, _), site_rows) in enumerate(zip(sites, rows)):
            _assemble(A[s], drift.astype(dtype, copy=False), site_ctrls.astype(dtype, copy=False),
                      site_rows[starts].T, duration)
    props = expm_stack(A.reshape(-1, m, m)).reshape(n, -1, m, m)

    # the active sites' states: v0 as an m x 1 block on one site; on two, X
    # and the identity, so that site 1 accumulates its product U1 and X U1^T
    # is the final state
    cols = 1 if len(L0) == 1 else m
    S = np.zeros((n, N, m, cols), dtype=np.result_type(v0, dtype))
    if len(L0) == 2:
        S.reshape(-1, m * m)[:, ::m + 1] = 1.0
    if L0[0] is not None:
        S[0] = v0.reshape(m, cols)
    # a batched product is bitwise its separate ones; every grid has a run
    # at each step r below the fewest runs, and after that only some do
    end, few = 0, int(np.minimum.reduce(counts))
    for r in range(int(np.maximum.reduce(counts))):
        if r < few:
            S = np.matmul(props[:, end:end + N], S)
            end += N
        else:
            grids = np.flatnonzero(counts > r)
            S[:, grids] = np.matmul(props[:, end:end + len(grids)], S[:, grids])
            end += len(grids)
    if len(L0) == 1:
        X = S[0, ..., 0]
    else:
        X = S[0] if L0[0] is not None else v0.reshape(m, m)
        if L0[1] is not None:
            X = np.matmul(X, S[-1].swapaxes(-1, -2))
        X = X.reshape(N, m * m)
    return X if dt.ndim else X[0]
