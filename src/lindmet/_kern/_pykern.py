"""Pure-Python fallback kernel, mirroring the compiled extension's interface.

Numerically equivalent to the compiled path (both use Pade scaling-and-squaring
matrix exponentials), roughly 4-5x slower per evolution. Selected automatically
when the extension is unavailable.
"""
import numpy as np
import scipy.linalg


def expm(a):
    """Matrix exponential of a square complex matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix")
    return scipy.linalg.expm(a)


def propagate_schedule(L0, ctrls, amps, dt, v0, trajectory=False):
    """Apply exp((L0 + sum_l amps[k,l]*ctrls[l]) * dt) to v0 for k = 0..K-1.

    Same contract as the compiled kernel: returns the final vector, or the
    (K+1, m) trajectory including the initial vector when requested.
    """
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

    traj = np.empty((K + 1, m), dtype=np.complex128) if trajectory else None
    if trajectory:
        traj[0] = v
    for k in range(K):
        A = L0.copy()
        for l in range(nl):
            if amps[k, l] != 0.0:
                A += amps[k, l] * ctrls[l]
        v = scipy.linalg.expm(A * dt) @ v
        if trajectory:
            traj[k + 1] = v
    return traj if trajectory else v
