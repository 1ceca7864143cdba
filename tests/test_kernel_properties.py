"""Property tests on random registers, one site or two, either site idle but
not both, with runs of equal rows (signed zeros included) in the amplitude
grid: ``_kern.expm_stack`` slice for slice against its one-slice calls,
``_kern.propagate_schedule`` over W copies of a grid at W slice lengths,
and over a stack of grids with one length each, on complex generators and
on the package's own real Van Loan blocks, the state and exact frequency
derivative of random models from ``SlicedDynamics.evolve_vectorized``, and
the search objective on the package's own registers against the checked
QFI."""
import collections
import functools

import numpy as np
import pytest
import scipy.linalg

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lindmet import _kern, schemes  # noqa: E402
from lindmet.channels import EncodingModel, Site  # noqa: E402
from lindmet.liouville import NoiseChannel, lindbladian, vectorize  # noqa: E402
from lindmet.propagation import ControlSchedule, SlicedDynamics  # noqa: E402
from test_propagation import (bitwise_equal, close_to_scipy, equal_but_nan,  # noqa: E402
                              per_run_reference)
import test_schemes  # noqa: E402

M = 4  # a qubit's superoperators are 4x4


@st.composite
def exponential_stacks(draw):
    """A stack of 1 to 150 slices, more than two of the kernel's 64-slice
    pieces: complex 4x4 or 16x16, or real 8x8 as the Van Loan blocks are,
    each at its own scale from 1e-3 to 1e3, some with a NaN or infinite
    entry, some with an entry of 1e200, past the squaring cap, and some
    repeated."""
    m, dtype = draw(st.sampled_from([(4, np.complex128), (8, np.float64), (16, np.complex128)]))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, m, m)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1)) / m
    if dtype is np.complex128:
        A = A + 1j * rng.standard_normal((n, m, m)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1)) / m
    for value in (np.nan, np.inf, 1e200):
        hit = rng.random(n) < 0.05
        A[hit, 0, -1] = value
    repeat = rng.random(n) < 0.2
    A[repeat] = A[rng.integers(0, n, np.count_nonzero(repeat))]
    return A


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(exponential_stacks())
def test_each_slice_is_its_own(A):
    # a stack of grids giving each grid's own state bit for bit, and rerunning
    # a search byte for byte, rest on this
    got = _kern.expm_stack(A)
    assert got.shape == A.shape and got.dtype == A.dtype
    for k in range(len(A)):
        assert equal_but_nan(got[k], _kern.expm_stack(A[k:k + 1])[0])


@st.composite
def registers(draw):
    """(drifts, ctrls, amps, dt, v0) of a register: a tuple entry per site, an
    idle site's drift None. Each site's rows are spelled by letters: A and B
    are two random rows, Z is row A with 0.0 in its first field and z the
    same with -0.0, which compares equal to Z."""
    n = draw(st.integers(1, 2))
    idle = draw(st.sampled_from([None] if n == 1 else [None, 0, 1]))
    W = draw(st.integers(1, 4))
    K = draw(st.integers(1, 6))
    fields = [0 if s == idle else draw(st.integers(0, 2)) for s in range(n)]
    patterns = [draw(st.text("ABZz", min_size=K, max_size=K)) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cplx = lambda *shape: 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    drifts, ctrls, amps = [], [], []
    for s, (L, pattern) in enumerate(zip(fields, patterns)):
        drifts.append(None if s == idle else cplx(M, M))
        ctrls.append(cplx(L, M, M))
        rows = {"A": rng.uniform(-3, 3, L), "B": rng.uniform(-3, 3, L)}
        rows["Z"], rows["z"] = rows["A"].copy(), rows["A"].copy()
        if L:
            rows["Z"][0], rows["z"][0] = 0.0, -0.0
        amps.append(np.array([rows[c] for c in pattern]).reshape(K, L))
    return tuple(drifts), tuple(ctrls), tuple(amps), rng.uniform(0.01, 0.2, W), cplx(M ** n)


def kronecker_sum_reference(drifts, ctrls, amps, dt, v0):
    """Per-slice ``scipy.linalg.expm`` of the sites' Kronecker sum, in
    site-product order, an idle site's generator zero."""
    v = np.array(v0)
    for k in range(len(amps[0])):
        full = np.zeros((1, 1))
        for D, C, a in zip(drifts, ctrls, amps):
            g = np.zeros((M, M)) if D is None else D + np.tensordot(a[k], C, 1)
            full = np.kron(full, np.eye(M)) + np.kron(np.eye(len(full)), g)
        v = scipy.linalg.expm(full * dt) @ v
    return v


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(registers())
def test_register_matches_the_kronecker_sum(register):
    drifts, ctrls, amps, dt, v0 = register
    # W copies of the grid, one at each length, each of which takes its own
    # generators
    got = _kern.propagate_schedule(drifts, ctrls, tuple(np.stack([a] * len(dt)) for a in amps),
                                   dt, v0)
    assert got.shape == (len(dt), len(v0))
    for w in range(len(dt)):
        ref = kronecker_sum_reference(drifts, ctrls, amps, dt[w], v0)
        assert np.max(np.abs(got[w] - ref)) <= 1e-12 * np.max(np.abs(ref))
        if len(drifts) == 1:
            # one site: bit for bit a loop of the kernel's one-slice exponentials
            assert bitwise_equal(got[w], per_run_reference(drifts[0], ctrls[0], amps[0],
                                                             dt[w], v0))
        # each copy is bit for bit the grid's own call at its length
        assert bitwise_equal(got[w], _kern.propagate_schedule(drifts, ctrls, amps, dt[w], v0))


@st.composite
def van_loan_stacks(draw):
    """(drift, ctrls, grids, lengths, v0): one random site's real 8x8 Van
    Loan blocks as a prepared probe holds them, the drift omega0*D + G with
    its structural zeros (some turned to -0.0) and the control blocks, and
    a stack of N > 1 grids, each at its own slice length. A length may be
    negative or an edge: 0.0, the least subnormal 5e-324, or 1e308 on a
    grid that starts with a run of 2, whose duration overflows. Rows are
    spelled by letters as in :func:`registers`, and 0 is a row of zeros with
    random signs; a grid may repeat an earlier one, at its length or at
    another."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    herm = lambda: (lambda a: (a + a.conj().T) / 2)(cplx(2, 2))
    ops = tuple(cplx(2, 2) for _ in range(draw(st.integers(0, 2))))
    site = Site(herm(), tuple(herm() for _ in range(draw(st.integers(1, 3)))),
                NoiseChannel(ops, tuple(rng.uniform(0.1, 3.0, len(ops)))))
    omega0 = float(rng.uniform(-5, 5))
    probe = SlicedDynamics(EncodingModel(omega0, [site])).prepare(np.eye(2).ravel() / 2, [1.0])
    drift, ctrls = probe._drifts[0].copy(), probe._ctrls[0]
    if draw(st.booleans()):
        zeros = np.flatnonzero(drift == 0)
        drift.flat[zeros[rng.random(len(zeros)) < 0.5]] = -0.0
    N, K, L = draw(st.integers(2, 5)), draw(st.integers(1, 6)), len(ctrls)
    grids, lengths = [], []
    for i in range(N):
        repeat = draw(st.sampled_from([None, "same", "other"])) if i else None
        if repeat:
            j = draw(st.integers(0, i - 1))
            grids.append(grids[j])
            lengths.append(lengths[j] if repeat == "same" else float(rng.uniform(0.01, 0.2)))
            continue
        rows = {"A": rng.uniform(-40, 40, L), "B": rng.uniform(-40, 40, L),
                "0": np.copysign(0.0, rng.uniform(-1, 1, L))}
        rows["Z"], rows["z"] = rows["A"].copy(), rows["A"].copy()
        rows["Z"][0], rows["z"][0] = 0.0, -0.0
        letters = draw(st.text("ABZz0", min_size=K, max_size=K))
        length = draw(st.sampled_from([1.0, 1.0, 1.0, -1.0, 0.0, 5e-324]
                                      + ([1e308] if K > 1 else [])))
        if length == 1e308:
            letters = letters[0] + letters[0] + letters[2:]
        elif abs(length) == 1.0:
            length *= float(rng.uniform(0.01, 0.2))
        grids.append(np.array([rows[c] for c in letters]))
        lengths.append(length)
    return drift, ctrls, np.stack(grids), np.array(lengths), rng.standard_normal(8)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(van_loan_stacks())
def test_stack_of_van_loan_blocks_matches_per_run_exponentials(case):
    # each grid of the stack bit for bit a loop of the kernel's exponential
    # of one slice per run, which shares no code with the kernel's assembly,
    # and, where that state is finite, close to the same loop on
    # scipy.linalg.expm; and the kernel exponentiates exactly the generators
    # that loop builds, each as often, one per run of every grid, signed
    # zeros and the NaN of an overflowing duration included, which a final
    # state seldom shows
    drift, ctrls, grids, lengths, v0 = case
    generators, real = [], _kern.expm_stack
    _kern.expm_stack = lambda A: generators.append(A.copy()) or real(A)
    try:
        got = _kern.propagate_schedule(drift, ctrls, grids, lengths, v0)
    finally:
        _kern.expm_stack = real
    built = collections.Counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (grid, dt) in enumerate(zip(grids, lengths)):
            ref = per_run_reference(drift, ctrls, grid, dt, v0)
            assert bitwise_equal(got[i], ref)
            if np.isfinite(ref).all():
                assert close_to_scipy(got[i], per_run_reference(drift, ctrls, grid, dt, v0,
                                                                scipy.linalg.expm))
            else:
                assert np.isnan(ref).all()
            k = 0
            while k < len(grid):
                n = 1
                while k + n < len(grid) and np.array_equal(grid[k + n], grid[k]):
                    n += 1
                A = drift.copy()
                for u, C in zip(grid[k], ctrls):
                    if u != 0.0:
                        A += u * C
                built[(A * (dt * n)).tobytes()] += 1
                k += n
    assert collections.Counter(A.tobytes() for A in np.concatenate(generators)) == built


@st.composite
def models(draw):
    """(model, schedule, rho0) of a random register: each active site has a
    random Hermitian frequency generator, zero to two random control
    Hamiltonians and zero to two random Lindblad operators with random
    rates; an idle site has none. The schedule's rows are spelled by letters
    as in :func:`registers`, over the whole register's fields, and rho0 is a
    random density matrix."""
    n = draw(st.integers(1, 2))
    idle = draw(st.sampled_from([None] if n == 1 else [None, 0, 1]))
    K = draw(st.integers(1, 6))
    pattern = draw(st.text("ABZz", min_size=K, max_size=K))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    herm = lambda: (lambda a: (a + a.conj().T) / 2)(cplx(2, 2))

    sites = []
    for s in range(n):
        if s == idle:
            sites.append(Site(np.zeros((2, 2))))
            continue
        ops = tuple(cplx(2, 2) for _ in range(draw(st.integers(0, 2))))
        sites.append(Site(herm(), tuple(herm() for _ in range(draw(st.integers(0, 2)))),
                          NoiseChannel(ops, tuple(rng.uniform(0.1, 3.0, len(ops))))))
    model = EncodingModel(float(rng.uniform(-5, 5)), sites)
    L = model.n_controls
    rows = {"A": rng.uniform(-3, 3, L), "B": rng.uniform(-3, 3, L)}
    rows["Z"], rows["z"] = rows["A"].copy(), rows["A"].copy()
    if L:
        rows["Z"][0], rows["z"][0] = 0.0, -0.0
    amps = np.array([rows[c] for c in pattern]).reshape(K, L)
    a = cplx(model.dim, model.dim)
    rho0 = a @ a.conj().T
    return model, ControlSchedule(amps, float(rng.uniform(0.05, 1.0))), rho0 / np.trace(rho0)


def frechet_reference(model, schedule, v0):
    """The state by per-slice ``scipy.linalg.expm`` of the full register's
    generator, the Kronecker sum of its sites', and its derivative in
    omega0 by chained ``scipy.linalg.expm_frechet`` in the direction of
    that generator's derivative."""
    dL = lindbladian(model.generator, NoiseChannel((), ()))
    v, dv = np.array(v0), np.zeros(len(v0), dtype=complex)
    for row in schedule.amplitudes:
        H = model.omega0 * model.generator + sum(u * Hc for u, Hc in zip(row, model.control_hams))
        L = lindbladian(H, model.channel) * schedule.dt
        P = scipy.linalg.expm(L)
        dP = scipy.linalg.expm_frechet(L, dL * schedule.dt, compute_expm=False)
        v, dv = P @ v, P @ dv + dP @ v
    return v, dv


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(models())
def test_derivative_matches_chained_frechet(case):
    model, schedule, rho0 = case
    v0 = vectorize(rho0)
    v, dv = SlicedDynamics(model).evolve_vectorized(schedule, v0)
    ref, dref = frechet_reference(model, schedule, v0)
    assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(dv - dref)) <= 1e-10 * np.max(np.abs(dref))


T = 0.3


@functools.lru_cache(maxsize=None)
def search_register(scheme, scenario, K):
    """The dynamics, probe state, search objective and amplitude bound of a
    register's search at (T, K), the objective on the probe prepared for T
    as ``run_scheme`` prepares it."""
    cfg = test_schemes.config(scheme, scenario, [T], K=K)
    dyn, rho0 = schemes.prepare(cfg)
    probe = dyn.prepare(vectorize(rho0), [T / K])
    return dyn, rho0, schemes._objective(probe, K, dyn.model.n_controls, [0]), cfg.resolved_u_max


@st.composite
def search_grids(draw):
    """(register, K, amplitude grid) for every register a search runs on, and
    each one-qubit scenario with its idle ancilla. Rows are spelled by
    letters: A and B are random rows inside +-u_max, U is row A pushed to the
    bounds with its signs, Z and z are row A with 0.0 and -0.0 in its first
    field, and 0 is a row of zeros with random signs."""
    register = draw(st.sampled_from(test_schemes.TestPreparedObjective.REGISTERS))
    K = draw(st.integers(1, 8))
    pattern = draw(st.text("ABUZz0", min_size=K, max_size=K))
    dyn, _, _, u_max = search_register(*register, K)
    L = dyn.model.n_controls
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = {"A": rng.uniform(-u_max, u_max, L), "B": rng.uniform(-u_max, u_max, L),
            "0": np.copysign(0.0, rng.uniform(-1, 1, L))}
    rows["U"] = np.copysign(u_max, rows["A"])
    rows["Z"], rows["z"] = rows["A"].copy(), rows["A"].copy()
    rows["Z"][0], rows["z"][0] = 0.0, -0.0
    return register, K, np.array([rows[c] for c in pattern])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(search_grids())
def test_search_objective_is_the_checked_qfi(case):
    # on a two-qubit register a random row drives both sites
    register, K, amps = case
    dyn, rho0, objective, _ = search_register(*register, K)
    checked, = schemes._schedule_qfi(dyn, [ControlSchedule(amps, T)], rho0)
    assert (-objective(amps.ravel())).hex() == checked.hex()
