import numpy as np
import pytest

from lindmet.channels import SIGMA_Z, parallel_dephasing
from lindmet.liouville import (NoiseChannel, dissipator_superop,
                               hamiltonian_superop, lindbladian, unvectorize,
                               vectorize)


def random_density(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (A + A.conj().T) / 2


def dissipator_rhs(channel, rho):
    """Direct dense evaluation of the master equation's noise term."""
    out = np.zeros_like(rho)
    for L, g in zip(channel.lindblad_ops, channel.rates):
        LdL = L.conj().T @ L
        out = out + g * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


class TestVectorize:
    def test_column_stacking_order(self):
        rho = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vectorize(rho), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_identity_case(self):
        assert np.array_equal(vectorize(np.eye(2) / 2), np.array([0.5, 0, 0, 0.5]))

    def test_plus_projector(self):
        plus = np.full((2, 2), 0.5)
        assert np.array_equal(vectorize(plus), np.full(4, 0.5))

    def test_element_position(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        v = vectorize(rho)
        for i in range(4):
            for j in range(4):
                assert v[j * 4 + i] == rho[i, j]

    @pytest.mark.parametrize("d", [2, 4])
    def test_round_trip_bitwise(self, d):
        rng = np.random.default_rng(d)
        rho = random_density(rng, d)
        assert np.array_equal(unvectorize(vectorize(rho)), rho)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            vectorize(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            unvectorize(np.zeros(3))


class TestHamiltonianSuperop:
    def test_zero(self):
        assert np.array_equal(hamiltonian_superop(np.zeros((2, 2))), np.zeros((4, 4)))

    def commutator_oracle(self, H, rho):
        return -1j * (H @ rho - rho @ H)

    def test_sigma_z_on_plus(self):
        H = SIGMA_Z / 2
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = unvectorize(-1j * hamiltonian_superop(H) @ vectorize(rho))
        assert np.max(np.abs(out - self.commutator_oracle(H, rho))) <= 1e-14

    def test_reference_drift_frequency(self):
        H = 2 * np.pi * SIGMA_Z / 2
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = random_density(rng, 2)
            out = unvectorize(-1j * hamiltonian_superop(H) @ vectorize(rho))
            assert np.max(np.abs(out - self.commutator_oracle(H, rho))) <= 1e-12

    def test_conjugate_equals_transpose_for_hermitian(self):
        rng = np.random.default_rng(3)
        H = random_hermitian(rng, 4)
        eye = np.eye(4)
        a = np.kron(eye, H) - np.kron(H.conj(), eye)
        b = np.kron(eye, H) - np.kron(H.T, eye)
        assert np.array_equal(a, b)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hamiltonian_superop(np.zeros((2, 3)))


class TestDissipatorSuperop:
    def test_zero_rates(self):
        ch = NoiseChannel((SIGMA_Z / np.sqrt(2),), (0.0,))
        assert np.allclose(dissipator_superop(ch), np.zeros((4, 4)))

    def test_parallel_dephasing_on_plus(self):
        gamma = 10.0
        ch = parallel_dephasing(gamma)
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = unvectorize(dissipator_superop(ch) @ vectorize(rho))
        direct = gamma / 2 * (SIGMA_Z @ rho @ SIGMA_Z - rho)
        assert np.max(np.abs(out - direct)) <= 1e-13
        # gamma * (0, -1/2, -1/2, 0) pattern
        assert np.allclose(dissipator_superop(ch) @ vectorize(rho),
                           gamma * np.array([0, -0.5, -0.5, 0]), atol=1e-13)

    def test_amplitude_damping_on_excited(self):
        gamma = 0.7
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        ch = NoiseChannel((lower,), (gamma,))
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = unvectorize(dissipator_superop(ch) @ vectorize(rho))
        expected = gamma * np.diag([1.0, -1.0])
        assert np.max(np.abs(out - expected)) <= 1e-13

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dissipator_superop(NoiseChannel((), ()))


class TestLindbladian:
    def test_zero_everything(self):
        out = lindbladian(np.zeros((2, 2)), NoiseChannel((), ()))
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_against_rhs_oracle(self):
        rng = np.random.default_rng(4)
        H = random_hermitian(rng, 2)
        ch = parallel_dephasing(10.0)
        L = lindbladian(H, ch)
        for _ in range(100):
            rho = random_density(rng, 2)
            rhs = -1j * (H @ rho - rho @ H) + dissipator_rhs(ch, rho)
            assert np.max(np.abs(L @ vectorize(rho) - vectorize(rhs))) <= 1e-12

    def test_trace_preservation_generator(self):
        H = 2 * np.pi * SIGMA_Z / 2
        L = lindbladian(H, parallel_dephasing(10.0))
        bra_identity = vectorize(np.eye(2)).conj()
        assert np.max(np.abs(bra_identity @ L)) <= 1e-10

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(5)
        H = random_hermitian(rng, 2)
        L = lindbladian(H, parallel_dephasing(3.0))
        for _ in range(20):
            rho = random_density(rng, 2)
            out = unvectorize(L @ vectorize(rho))
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lindbladian(np.eye(4), parallel_dephasing(1.0))


class TestNoiseChannel:
    def test_negative_rate_rejected(self):
        # NaN and inf too, at construction, before a dissipator or a
        # propagation sees them
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="non-negative and finite"):
                NoiseChannel((SIGMA_Z,), (bad,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NoiseChannel((SIGMA_Z,), (1.0, 2.0))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            NoiseChannel((SIGMA_Z, np.eye(4)), (1.0, 1.0))
