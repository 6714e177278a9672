import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eigentomo import measurement as ms
from eigentomo import rbm
from eigentomo import states as st

from conftest import dense_rotation


def brute_force_marginal(params: rbm.RbmParams, sigma) -> float:
    """Sum the joint Boltzmann weight over every hidden configuration."""
    s = np.asarray(sigma, dtype=float)
    total = 0.0
    for h_bits in itertools.product((1.0, -1.0), repeat=params.n_hidden):
        h = np.asarray(h_bits)
        total += np.exp(
            s @ params.weights @ h
            + params.visible_bias @ s
            + params.hidden_bias @ h
        )
    return total


def brute_force_partition(params: rbm.RbmParams) -> float:
    total = 0.0
    for s_bits in itertools.product((1.0, -1.0), repeat=params.n_visible):
        total += brute_force_marginal(params, np.asarray(s_bits))
    return total


def random_params(n: int, rng: np.random.Generator, scale=0.6) -> rbm.RbmParams:
    return rbm.RbmParams(
        rng.normal(scale=scale, size=(n, n)),
        rng.normal(scale=scale, size=n),
        rng.normal(scale=scale, size=n),
    )


def amplitudes(state: rbm.NqsState) -> np.ndarray:
    return rbm.to_state_vector(state).amplitudes


def sample_histogram(samples: np.ndarray) -> np.ndarray:
    n = samples.shape[1]
    bits = (samples < 0).astype(np.int64)
    idx = bits @ (1 << np.arange(n - 1, -1, -1))
    return np.bincount(idx, minlength=2**n) / samples.shape[0]


def exact_visible_distribution(params: rbm.RbmParams) -> np.ndarray:
    spins = ms.spin_table(params.n_visible).astype(float)
    log_p = rbm.log_marginal_table(params, spins)
    return np.exp(log_p - rbm.log_sum_exp(log_p))


class TestRbmParams:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            rbm.RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rbm.RbmParams(np.full((2, 2), np.inf), np.zeros(2), np.zeros(2))


class TestLogMarginal:
    def test_zero_params(self):
        params = rbm.RbmParams.zeros(4)
        assert rbm.rbm_log_marginal(params, [1, -1, 1, -1]) == pytest.approx(
            4 * np.log(2)
        )

    def test_single_visible_bias(self):
        params = rbm.RbmParams(np.zeros((3, 3)), np.array([1.0, 0, 0]), np.zeros(3))
        assert rbm.rbm_log_marginal(params, [1, 1, -1]) == pytest.approx(
            1 + 3 * np.log(2)
        )

    @settings(max_examples=50, deadline=None)
    @given(hst.integers(0, 2**32 - 1), hst.integers(1, 6))
    def test_matches_exhaustive_hidden_sum(self, seed, n):
        rng = np.random.default_rng(seed)
        params = random_params(n, rng)
        sigma = rng.choice([1.0, -1.0], size=n)
        expected = np.log(brute_force_marginal(params, sigma))
        value = rbm.rbm_log_marginal(params, sigma)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_overflow_safe(self):
        params = rbm.RbmParams(np.full((2, 2), 400.0), np.zeros(2), np.zeros(2))
        value = rbm.rbm_log_marginal(params, [1, 1])
        assert np.isfinite(value)


def exact_log_normalizer(params: rbm.RbmParams) -> float:
    """Log of the visible-layer normalization, as ``rbm.wavefunction`` sums it."""
    spins = rbm.exact_spin_table(params.n_visible)
    return rbm.log_sum_exp(rbm.log_marginal_table(params, spins))


class TestLogPartition:
    def test_zero_params(self):
        assert exact_log_normalizer(rbm.RbmParams.zeros(3)) == pytest.approx(
            6 * np.log(2)
        )

    def test_matches_double_exhaustive_sum(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            params = random_params(4, rng)
            assert exact_log_normalizer(params) == pytest.approx(
                np.log(brute_force_partition(params)), rel=1e-9
            )

    def test_bias_only_factorizes(self):
        rng = np.random.default_rng(78)
        a = rng.normal(size=5)
        params = rbm.RbmParams(np.zeros((5, 5)), a, np.zeros(5))
        expected = np.log(np.prod(2 * np.cosh(a)) * 2**5)
        assert exact_log_normalizer(params) == pytest.approx(expected, rel=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="gibbs_sample"):
            rbm.exact_spin_table(13)
        with pytest.raises(ValueError, match="gibbs_sample"):
            rbm.to_state_vector(rbm.NqsState.uniform_init(13, seed=0))


class TestAmplitudes:
    def test_zero_params_uniform(self):
        state = rbm.NqsState(rbm.RbmParams.zeros(2), rbm.RbmParams.zeros(2))
        value = amplitudes(state)[ms.outcome_strings(2).index("+-")]
        assert abs(value) == pytest.approx(0.5, abs=1e-12)
        assert np.angle(value) == pytest.approx(np.log(2), abs=1e-12)

    def test_normalization(self):
        # The raw evaluator, since to_state_vector renormalizes its output.
        for seed, n in ((0, 2), (1, 4), (2, 4), (3, 7), (4, 10)):
            state = rbm.NqsState.uniform_init(n, seed=seed, scale=0.4, phase_scale=0.8)
            amps, _ = rbm.wavefunction(
                rbm.pack_parameters(state), rbm.exact_spin_table(n)
            )
            assert (np.abs(amps) ** 2).sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_independently_assembled_values(self):
        rng = np.random.default_rng(80)
        amp_net = random_params(4, rng)
        phase_net = random_params(4, rng)
        state = rbm.NqsState(amp_net, phase_net)
        partition = brute_force_partition(amp_net)
        vec = amplitudes(state)
        for outcome in ("++++", "+-+-", "----"):
            sigma = [1 if c == "+" else -1 for c in outcome]
            expected = np.sqrt(
                brute_force_marginal(amp_net, np.asarray(sigma, float)) / partition
            ) * np.exp(
                0.5j * np.log(brute_force_marginal(phase_net, np.asarray(sigma, float)))
            )
            value = vec[ms.outcome_strings(4).index(outcome)]
            assert value == pytest.approx(expected, rel=1e-9)

    def test_to_state_vector(self):
        state = rbm.NqsState(rbm.RbmParams.zeros(1), rbm.RbmParams.zeros(1))
        vec = rbm.to_state_vector(state)
        ratio = vec.amplitudes / (np.ones(2) / np.sqrt(2))
        assert np.allclose(ratio, ratio[0])
        assert abs(abs(ratio[0]) - 1) <= 1e-12

    def test_global_phase_invariance_of_functionals(self):
        state = rbm.NqsState.uniform_init(2, seed=3, scale=0.3, phase_scale=1.0)
        vec = rbm.to_state_vector(state).amplitudes
        rho = np.outer(vec, vec.conj())
        for phase in (1j, np.exp(0.7j)):
            rotated = vec * phase
            assert np.allclose(np.outer(rotated, rotated.conj()), rho, atol=1e-12)
            assert np.allclose(
                ms.probabilities_vector(rotated, "xy"),
                ms.probabilities_vector(vec, "xy"),
                atol=1e-12,
            )


class TestFusedEvaluator:
    """``wavefunction`` evaluates both networks as one stack; each slice must
    equal the per-network tables."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_network_tables(self, n):
        rng = np.random.default_rng(300 + n)
        amp_net = random_params(n, rng)
        phase_net = random_params(n, rng, scale=1.2)
        if n > 1:
            # A layout that read W transposed would then give other tables.
            assert not np.allclose(amp_net.weights, amp_net.weights.T)
            assert not np.allclose(phase_net.weights, phase_net.weights.T)
        spins = rbm.exact_spin_table(n)
        psi, tanh = rbm.wavefunction(
            rbm.pack_parameters(rbm.NqsState(amp_net, phase_net)), spins
        )
        assert psi.shape == (2**n,) and tanh.shape == (2, 2**n, n)
        log_p = rbm.log_marginal_table(amp_net, spins)
        phase = rbm.log_marginal_table(phase_net, spins)
        assert np.allclose(
            np.log(np.abs(psi) ** 2) + rbm.log_sum_exp(log_p), log_p,
            rtol=0, atol=1e-12,
        )
        # 2 arg psi equals the phase log-marginal modulo 2 pi.
        assert np.allclose(
            np.exp(2j * np.angle(psi)), np.exp(1j * phase), rtol=0, atol=1e-12
        )
        for k, net in enumerate((amp_net, phase_net)):
            want = np.tanh(spins @ net.weights + net.hidden_bias)
            assert np.allclose(tanh[k], want, rtol=0, atol=1e-14)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 16 parameters"):
            rbm.wavefunction(np.zeros(15), rbm.exact_spin_table(2))


class TestRotatedProbability:
    def test_all_z_equals_squared_amplitude(self):
        state = rbm.NqsState.uniform_init(3, seed=5, scale=0.4, phase_scale=0.9)
        vec = amplitudes(state)
        probs = ms.probabilities_vector(vec, "zzz")
        for outcome in ("+++", "+-+"):
            index = ms.outcome_strings(3).index(outcome)
            assert probs[index] == pytest.approx(abs(vec[index]) ** 2, abs=1e-12)

    def test_uniform_state_is_plus_state(self):
        state = rbm.NqsState(rbm.RbmParams.zeros(1), rbm.RbmParams.zeros(1))
        probs = ms.probabilities_vector(amplitudes(state), "x")
        assert probs[ms.outcome_strings(1).index("+")] == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_unitary(self):
        rng = np.random.default_rng(81)
        for n in (2, 3, 5):
            state = rbm.NqsState.uniform_init(n, seed=int(rng.integers(1 << 30)),
                                              scale=0.4, phase_scale=0.8)
            basis = "".join(rng.choice(list("xyz")) for _ in range(n))
            vec = amplitudes(state)
            expected = np.abs(dense_rotation(basis) @ vec) ** 2
            probs = ms.probabilities_vector(vec, basis)
            for index in range(2**n):
                assert probs[index] == pytest.approx(float(expected[index]), abs=1e-9)

    def test_sums_to_one_per_basis(self):
        state = rbm.NqsState.uniform_init(4, seed=6, scale=0.5, phase_scale=1.0)
        vec = amplitudes(state)
        for basis in ("xyzx", "yyyy", "zxzy"):
            assert ms.probabilities_vector(vec, basis).sum() == pytest.approx(
                1.0, abs=1e-9
            )


class TestGibbsSampling:
    def test_uniform_target(self):
        params = rbm.RbmParams.zeros(3)
        samples = rbm.gibbs_sample(params, 100_000, burn_in=50, thin=1, seed=1)
        tv = 0.5 * np.abs(sample_histogram(samples) - 1 / 8).sum()
        assert tv <= 0.02

    def test_biased_single_visible(self):
        params = rbm.RbmParams(np.zeros((1, 1)), np.array([3.0]), np.zeros(1))
        samples = rbm.gibbs_sample(params, 100_000, burn_in=100, thin=1, seed=2)
        frac = float((samples == 1).mean())
        assert frac == pytest.approx(1 / (1 + np.exp(-6)), abs=0.01)

    def test_deterministic_per_seed(self):
        params = rbm.RbmParams.zeros(2)
        a = rbm.gibbs_sample(params, 500, burn_in=10, thin=3, seed=7)
        b = rbm.gibbs_sample(params, 500, burn_in=10, thin=3, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (500, 2)

    def test_sample_count_not_a_multiple_of_the_chains(self):
        params = rbm.RbmParams.zeros(3)
        n_samples = 2 * rbm._CHAINS + 5
        samples = rbm.gibbs_sample(params, n_samples, burn_in=5, thin=2, seed=3)
        assert samples.shape == (n_samples, 3)
        assert set(np.unique(samples)) <= {-1, 1}
        # Chain-major: chain 0's first samples do not depend on the count.
        fewer = rbm.gibbs_sample(params, 2 * rbm._CHAINS, burn_in=5, thin=2, seed=3)
        assert np.array_equal(samples[:2], fewer[:2])

    def test_thinned_chain_matches_exact_marginal(self):
        rng = np.random.default_rng(5)
        params = random_params(4, rng, scale=0.4)
        samples = rbm.gibbs_sample(params, 1_000_000, burn_in=100, thin=5, seed=9)
        tv = 0.5 * np.abs(
            sample_histogram(samples) - exact_visible_distribution(params)
        ).sum()
        assert tv <= 0.01


class TestParameterPacking:
    def test_round_trip(self):
        state = rbm.NqsState.uniform_init(3, seed=1, scale=0.2, phase_scale=0.7)
        theta = rbm.pack_parameters(state)
        assert theta.shape == (rbm.n_parameters(3),)
        back = rbm.unpack_parameters(theta, 3)
        assert np.array_equal(back.amplitude_net.weights, state.amplitude_net.weights)
        assert np.array_equal(back.phase_net.hidden_bias, state.phase_net.hidden_bias)
