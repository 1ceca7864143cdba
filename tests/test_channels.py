import numpy as np
import pytest
import scipy.linalg

from lindmet.channels import (DEFAULT_RATES, SCENARIOS, SIGMA_X, SIGMA_Y,
                              SIGMA_Z, EncodingModel, Site, _require_rate,
                              amplitude_damping,
                              ancilla_extend, build_scenario,
                              parallel_dephasing, transverse_dephasing)
from lindmet.liouville import NoiseChannel, dissipator_superop, unvectorize, vectorize

PLUS = np.full((2, 2), 0.5, dtype=complex)


def propagate_noise_only(channel, rho, t):
    """Oracle propagation with scipy's expm, drift-free."""
    G = dissipator_superop(channel)
    return unvectorize(scipy.linalg.expm(G * t) @ vectorize(rho))


def partial_trace_second(rho):
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r)


def partial_trace_first(rho):
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("kikj->ij", r)


class TestRequireRate:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-negative and finite"):
            _require_rate(bad, "gamma")
        with pytest.raises(ValueError, match="gamma_plus"):
            amplitude_damping(0.2, bad)

    def test_accepts_zero_and_positive(self):
        assert _require_rate(0.0, "gamma") == 0.0
        assert _require_rate(2, "gamma") == 2.0


class TestParallelDephasing:
    def test_operator_form(self):
        ch = parallel_dephasing(10.0)
        assert np.array_equal(ch.lindblad_ops[0], SIGMA_Z / np.sqrt(2))
        assert ch.rates == (10.0,)
        assert 1.0 / ch.rates[0] == 0.1  # T2 at the reference operating point

    def test_zero_rate_freezes_coherence(self):
        rho = propagate_noise_only(parallel_dephasing(0.0), PLUS, 3.0)
        assert np.allclose(rho, PLUS, atol=1e-12)

    def test_analytic_coherence_decay(self):
        # rho_01(t) = exp(-gamma t)/2 for the drift-free master equation
        rho = propagate_noise_only(parallel_dephasing(10.0), PLUS, 0.1)
        assert abs(rho[0, 1] - 0.5 * np.exp(-1.0)) <= 1e-12
        assert abs(rho[0, 1] - 0.18393972058572117) <= 1e-12

    def test_closed_form_across_times(self):
        gamma = 10.0
        for t in (0.1 / gamma, 1.0 / gamma, 3.0 / gamma):
            rho = propagate_noise_only(parallel_dephasing(gamma), PLUS, t)
            expected = np.array([[0.5, 0.5 * np.exp(-gamma * t)],
                                 [0.5 * np.exp(-gamma * t), 0.5]])
            assert np.max(np.abs(rho - expected)) <= 1e-10

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            parallel_dephasing(-1.0)


def two_qubit_dephasing(gamma1, gamma2):
    """The full-register channel of the two-qubit scenario."""
    return build_scenario("parallel-dephasing-2q", 0.0,
                          {"gamma1": gamma1, "gamma2": gamma2}).channel


class TestTwoQubitDephasing:
    def test_operator_forms(self):
        ch = two_qubit_dephasing(10.0, 10.0)
        assert np.array_equal(ch.lindblad_ops[0], np.kron(SIGMA_Z, np.eye(2)) / np.sqrt(2))
        assert np.array_equal(ch.lindblad_ops[1], np.kron(np.eye(2), SIGMA_Z) / np.sqrt(2))

    def test_bell_coherence_decay(self):
        g1, g2 = 10.0, 4.0
        rate = g1 + g2
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = np.outer(psi, psi.conj())
        for t in (0.1 / rate, 1.0 / rate, 3.0 / rate):
            rho = propagate_noise_only(two_qubit_dephasing(g1, g2), bell, t)
            assert abs(rho[0, 3] - 0.5 * np.exp(-rate * t)) <= 1e-10

    def test_idle_qubit_untouched(self):
        rng = np.random.default_rng(0)
        a = rng.random(2)
        rho2 = np.diag(a / a.sum()).astype(complex)
        rho2[0, 1] = rho2[1, 0] = 0.1
        product = np.kron(PLUS, rho2)
        out = propagate_noise_only(two_qubit_dephasing(10.0, 0.0), product, 0.5)
        assert np.max(np.abs(partial_trace_first(out) - rho2)) <= 1e-12

    def test_marginal_decay_matches_single_qubit(self):
        ch = two_qubit_dephasing(10.0, 10.0)
        out = propagate_noise_only(ch, np.kron(PLUS, PLUS), 0.1)
        marg = partial_trace_second(out)
        assert abs(marg[0, 1] - 0.5 * np.exp(-1.0)) <= 1e-10


class TestTransverseDephasing:
    def test_operator_form(self):
        ch = transverse_dephasing(0.1)
        assert np.array_equal(ch.lindblad_ops[0], SIGMA_X / np.sqrt(2))

    def test_sigma_z_expectation_decay(self):
        gamma = 0.8
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        for t in (0.1 / gamma, 1.0 / gamma, 3.0 / gamma):
            rho = propagate_noise_only(transverse_dephasing(gamma), ket0, t)
            z = np.real(np.trace(rho @ SIGMA_Z))
            assert abs(z - np.exp(-gamma * t)) <= 1e-10

    def test_reference_rates_accepted(self):
        transverse_dephasing(0.1)
        transverse_dephasing(10.0)


class TestAmplitudeDamping:
    def test_operator_forms(self):
        ch = amplitude_damping(0.2, 0.0)
        lower, raiser = ch.lindblad_ops
        assert np.array_equal(lower, np.array([[0, 1], [0, 0]]))
        assert np.array_equal(raiser, np.array([[0, 0], [1, 0]]))
        assert ch.rates == (0.2, 0.0)

    def test_population_decay(self):
        gamma = 0.2
        excited = np.diag([0.0, 1.0]).astype(complex)
        for t in (0.1 / gamma, 1.0 / gamma, 3.0 / gamma):
            rho = propagate_noise_only(amplitude_damping(gamma, 0.0), excited, t)
            assert abs(rho[1, 1] - np.exp(-gamma * t)) <= 1e-10

    def test_zero_rates_free_evolution(self):
        rho = propagate_noise_only(amplitude_damping(0.0, 0.0), PLUS, 2.0)
        assert np.allclose(rho, PLUS, atol=1e-12)

    def test_finite_temperature_steady_state(self):
        # gamma_plus > 0 balances populations at gamma_+/(gamma_+ + gamma_-)
        gm, gp = 0.3, 0.1
        rho = propagate_noise_only(amplitude_damping(gm, gp), PLUS, 200.0)
        assert abs(rho[1, 1] - gp / (gm + gp)) <= 1e-8


class TestFrequencyEncoding:
    """The drift omega0 * G of every scenario: sigma_z/2 on each qubit."""

    def test_single_qubit(self):
        for name in SCENARIOS:
            if name != "parallel-dephasing-2q":
                H = 2 * np.pi * build_scenario(name, 1.0).generator
                assert np.allclose(H, np.diag([np.pi, -np.pi]))

    def test_two_qubit(self):
        H = 2 * np.pi * build_scenario("parallel-dephasing-2q", 1.0).generator
        assert np.allclose(H, np.diag([2 * np.pi, 0.0, 0.0, -2 * np.pi]))

    def test_nmr_operating_point(self):
        H = 60 * 2 * np.pi * build_scenario("parallel-dephasing-1q", 1.0).generator
        assert np.allclose(H, np.diag([60 * np.pi, -60 * np.pi]))

    def test_unsupported_count(self):
        # a register is one site or two, checked at construction, not at
        # its first propagation
        site = Site(SIGMA_Z / 2)
        for sites in ((), (site,) * 3):
            with pytest.raises(ValueError, match=f"one site or two, got {len(sites)}"):
                EncodingModel(2.0, sites)


class TestAncillaExtend:
    def test_extended_forms(self):
        model = build_scenario("parallel-dephasing-1q", 2 * np.pi)
        ext = ancilla_extend(model)
        assert np.array_equal(ext.channel.lindblad_ops[0],
                              np.kron(SIGMA_Z, np.eye(2)) / np.sqrt(2))
        assert np.allclose(ext.omega0 * ext.generator,
                           2 * np.pi * np.kron(SIGMA_Z, np.eye(2)) / 2)

    def test_bell_coherence_single_sided_decay(self):
        gamma = 10.0
        ext = ancilla_extend(build_scenario("parallel-dephasing-1q", 0.0,
                                            {"gamma": gamma}))
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = np.outer(psi, psi.conj())
        rho = propagate_noise_only(ext.channel, bell, 0.1)
        assert abs(rho[0, 3] - 0.5 * np.exp(-gamma * 0.1)) <= 1e-10

    def test_reduced_dynamics_preserved(self):
        model = build_scenario("amplitude-damping", 2 * np.pi)
        ext = ancilla_extend(model)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_sys = A @ A.conj().T
        rho_sys /= np.trace(rho_sys)
        ket0 = np.diag([1.0, 0.0]).astype(complex)

        from lindmet.liouville import lindbladian
        t = 0.7
        small = unvectorize(scipy.linalg.expm(
            lindbladian(model.omega0 * model.generator, model.channel) * t)
            @ vectorize(rho_sys))
        big = unvectorize(scipy.linalg.expm(
            lindbladian(ext.omega0 * ext.generator, ext.channel) * t)
            @ vectorize(np.kron(rho_sys, ket0)))
        assert np.max(np.abs(partial_trace_second(big) - small)) <= 1e-10

    def test_rejects_two_qubit_model(self):
        model = build_scenario("parallel-dephasing-2q", 2 * np.pi)
        with pytest.raises(ValueError):
            ancilla_extend(model)


class TestScenarios:
    def test_registry_complete(self):
        assert set(SCENARIOS) == set(DEFAULT_RATES)
        for name in SCENARIOS:
            model = build_scenario(name, 2 * np.pi)
            assert isinstance(model, EncodingModel)

    def test_control_sets(self):
        m = build_scenario("parallel-dephasing-1q", 2 * np.pi)
        assert np.array_equal(m.control_hams[0], SIGMA_X / 2)
        assert np.array_equal(m.control_hams[1], SIGMA_Y / 2)
        m = build_scenario("transverse-dephasing", 2 * np.pi)
        assert len(m.control_hams) == 1
        assert np.array_equal(m.control_hams[0], SIGMA_Z / 2)
        m = build_scenario("parallel-dephasing-2q", 2 * np.pi)
        assert m.n_controls == 4
        m = build_scenario("amplitude-damping", 2 * np.pi)
        assert m.n_controls == 2

    def test_rate_overrides(self):
        m = build_scenario("transverse-dephasing", 2 * np.pi, {"gamma": 10.0})
        assert m.channel.rates == (10.0,)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("depolarizing", 1.0)

    def test_unknown_rate_key(self):
        with pytest.raises(ValueError, match="does not accept"):
            build_scenario("parallel-dephasing-1q", 1.0, {"gamma_minus": 1.0})

    def test_non_hermitian_control_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            EncodingModel(2.0, [Site(SIGMA_Z / 2, (np.array([[0, 1], [0, 0]]),),
                                     parallel_dephasing(1.0))])


class TestSites:
    def test_one_qubit_model_is_its_own_site(self):
        m = build_scenario("amplitude-damping", 2 * np.pi)
        (site,) = m.sites
        assert m.n_qubits == 1 and m.dim == 2 and m.n_controls == 2
        # the full register of one site is that site's own operators
        assert np.array_equal(m.generator, site.generator)
        assert all(map(np.array_equal, m.control_hams, site.control_hams))
        assert m.channel.rates == site.channel.rates
        assert all(map(np.array_equal, m.channel.lindblad_ops, site.channel.lindblad_ops))

    def test_two_qubit_scenario_is_two_sites(self):
        m = build_scenario("parallel-dephasing-2q", 2 * np.pi, {"gamma1": 3.0})
        assert [s.channel.rates for s in m.sites] == [(3.0,), (10.0,)]
        for site in m.sites:
            assert np.array_equal(site.generator, SIGMA_Z / 2)
            assert len(site.control_hams) == 2
        # the full register is the sum of the sites, controls in site order
        assert np.array_equal(m.generator, np.kron(SIGMA_Z / 2, np.eye(2))
                              + np.kron(np.eye(2), SIGMA_Z / 2))
        assert m.channel.rates == (3.0, 10.0)
        assert np.array_equal(m.channel.lindblad_ops[1], np.kron(np.eye(2), SIGMA_Z) / np.sqrt(2))
        assert np.array_equal(m.control_hams[3], np.kron(np.eye(2), SIGMA_Y / 2))

    def test_ancilla_is_an_idle_site(self):
        ext = ancilla_extend(build_scenario("transverse-dephasing", 2 * np.pi))
        idle = ext.sites[1]
        assert not idle.generator.any() and idle.control_hams == ()
        assert idle.channel.lindblad_ops == ()
        assert np.array_equal(ext.control_hams[0], np.kron(SIGMA_Z / 2, np.eye(2)))

    def test_register_is_given_by_its_sites(self):
        ref = build_scenario("parallel-dephasing-2q", 2.0, {"gamma1": 3.0})
        m = EncodingModel(2.0, iter(ref.sites))
        assert all(a is b for a, b in zip(m.sites, ref.sites))
        assert len(m.sites) == m.n_qubits == 2 and m.dim == 4
        assert m.n_controls == 4
        assert np.array_equal(m.generator, ref.generator)
        assert m.channel.rates == ref.channel.rates
        # the full-register operators are built once, on first use
        assert m.control_hams is m.control_hams

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_omega0(self, bad):
        # at construction, not at the first propagation
        with pytest.raises(ValueError, match="omega0 must be finite"):
            build_scenario("parallel-dephasing-1q", bad)
        with pytest.raises(ValueError, match="omega0 must be finite"):
            EncodingModel(bad, (Site(SIGMA_Z / 2),))

    def test_site_is_one_qubit(self):
        with pytest.raises(ValueError, match="one qubit"):
            Site(np.eye(4))
        # the shape is checked before the Hermiticity test could fail to broadcast
        with pytest.raises(ValueError, match=r"one qubit, got a \(2, 3\) control"):
            Site(SIGMA_Z, (np.zeros((2, 3)),))
        with pytest.raises(ValueError, match="Hermitian"):
            Site(SIGMA_Z, (np.array([[0, 1], [0, 0]]),))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and Hermitian"):
                Site(np.array([[bad, 0], [0, 1]]))
        with pytest.raises(ValueError, match="noise channel dimension"):
            Site(SIGMA_Z, (), NoiseChannel((np.eye(4),), (1.0,)))
