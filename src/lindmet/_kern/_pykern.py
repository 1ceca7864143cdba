"""Pure-Python kernel: the subset of the compiled extension's interface that
the package calls (``expm`` and final-state ``propagate_schedule``).

Both paths use Pade scaling-and-squaring matrix exponentials. This one makes
a single stacked ``scipy.linalg.expm`` call per propagation, which runs the
same algorithm on each slice in turn, so its results are bitwise those of
one call per slice. The README's Install section gives its speed against the
compiled kernel. Selected automatically when the extension is unavailable.
"""
import numpy as np
import scipy.linalg


def expm(a):
    """Matrix exponential of a square complex matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix")
    return scipy.linalg.expm(a)


def propagate_schedule(L0, ctrls, amps, dt, v0):
    """Apply exp((L0 + sum_l amps[k,l]*ctrls[l]) * dt) to v0 for k = 0..K-1
    and return the final vector."""
    L0 = np.asarray(L0, dtype=np.complex128)
    ctrls = np.asarray(ctrls, dtype=np.complex128)
    amps = np.asarray(amps, dtype=np.float64)
    v = np.array(v0, dtype=np.complex128)
    m = L0.shape[0]
    K, nl = amps.shape
    if L0.shape != (m, m):
        raise ValueError("L0 must be square")
    if ctrls.shape[0] != nl:
        raise ValueError("amps field count does not match control generators")
    if nl > 0 and ctrls.shape[1:] != (m, m):
        raise ValueError("control generators must match L0 shape")
    if v.shape != (m,):
        raise ValueError("state vector length does not match generator")

    # each slice is L0 + u_1 C_1 + u_2 C_2 + ..., added in field order and
    # skipping zero amplitudes, so every generator is bitwise a per-slice build
    A = np.broadcast_to(L0, (K, m, m)).copy()
    for l in range(nl):
        on = amps[:, l] != 0.0
        A[on] += amps[on, l, None, None] * ctrls[l]
    props = scipy.linalg.expm(A * dt)

    for k in range(K):
        v = props[k] @ v
    return v
