import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eigentomo import measurement as ms
from eigentomo import rbm
from eigentomo import states as st

from conftest import dense_rotation, network_parts, reference_wavefunction


def zero_params(n: int) -> rbm.RbmParams:
    return rbm.RbmParams(np.zeros((n, n)), np.zeros(n), np.zeros(n))


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
        params = zero_params(4)
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
    """Log of the visible-layer normalization, a ``log_sum_exp`` over every
    configuration."""
    spins = ms.spin_table(params.n_visible).astype(float)
    return rbm.log_sum_exp(rbm.log_marginal_table(params, spins))


class TestLogPartition:
    def test_zero_params(self):
        assert exact_log_normalizer(zero_params(3)) == pytest.approx(
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
        with pytest.raises(ValueError, match="exact mode is capped at 12 qubits"):
            rbm.Ansatz(13)
        with pytest.raises(ValueError, match=r"sums over all 2\*\*13 spin configurations"):
            rbm.to_state_vector(rbm.NqsState.uniform_init(13, seed=0))


class TestAmplitudes:
    def test_zero_params_uniform(self):
        state = rbm.NqsState(zero_params(2), zero_params(2))
        value = amplitudes(state)[ms.outcome_strings(2).index("+-")]
        assert abs(value) == pytest.approx(0.5, abs=1e-12)
        assert np.angle(value) == pytest.approx(np.log(2), abs=1e-12)

    def test_normalization(self):
        # The raw evaluator, since to_state_vector renormalizes its output.
        for seed, n in ((0, 2), (1, 4), (2, 4), (3, 7), (4, 10)):
            state = rbm.NqsState.uniform_init(n, seed=seed, scale=0.4, phase_scale=0.8)
            amps = rbm.Ansatz(n).wavefunction(rbm.pack_parameters(state))
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
        state = rbm.NqsState(zero_params(1), zero_params(1))
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
    """``Ansatz.wavefunction`` evaluates both networks as one stack; each
    slice must equal the per-network tables."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_network_tables(self, n):
        rng = np.random.default_rng(300 + n)
        amp_net = random_params(n, rng)
        phase_net = random_params(n, rng, scale=1.2)
        if n > 1:
            # A layout that read W transposed would then give other tables.
            assert not np.allclose(amp_net.weights, amp_net.weights.T)
            assert not np.allclose(phase_net.weights, phase_net.weights.T)
        ansatz = rbm.Ansatz(n)
        psi = ansatz.wavefunction(rbm.pack_parameters(rbm.NqsState(amp_net, phase_net)))
        tanh = ansatz._tanh
        spins = ms.spin_table(n).astype(float)
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
            rbm.Ansatz(2).wavefunction(np.zeros(15))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_log_sum_exp_reference(self, n):
        # The hidden layer as one [1 | s] [b; W] matmul and psi shifted by the
        # peak of log p / 2 and divided by its norm, against W^T s + b and a
        # log_sum_exp normalization, for stacks and single vectors.  The last
        # draw has log p / 2 spanning more than 1400, where an unshifted exp
        # overflows.
        rng = np.random.default_rng(600 + n)
        thetas = rng.uniform(-1.0, 1.0, (4, rbm.n_parameters(n)))
        thetas[-1, :n] = 1500.0 * rng.choice([-1.0, 1.0], n) / n
        spins = ms.spin_table(n).astype(float)
        a, b, w = network_parts(thetas[-1], n)[0]
        amp_net = rbm.RbmParams(w, a, b)
        log_p = rbm.log_marginal_table(amp_net, spins)
        assert 0.5 * (log_p.max() - log_p.min()) > 1400
        ansatz = rbm.Ansatz(n)
        stacked = ansatz.wavefunction(thetas)
        tanh = ansatz._tanh
        for k, theta in enumerate(thetas):
            want, want_tanh = reference_wavefunction(theta, n)
            single = (ansatz.wavefunction(theta), ansatz._tanh)
            for got, got_tanh in (single, (stacked[k], tanh[k])):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                assert np.abs(got_tanh - want_tanh).max() <= 1e-12


class TestAnsatz:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stacks_of_any_size(self, n):
        # One ansatz takes stacks of 1, 5 and 2 members in turn, each member
        # with the bits of its own single call, and the gradient of the last
        # stack is that of a fresh ansatz shown only that stack.
        rng = np.random.default_rng(900 + n)
        ansatz = rbm.Ansatz(n)
        for members in (1, 5, 2):
            thetas = rng.uniform(-1.0, 1.0, (members, rbm.n_parameters(n)))
            stacked = ansatz.wavefunction(thetas)
            assert stacked.shape == (members, 2**n)
            for theta, got in zip(thetas, stacked):
                assert np.array_equal(rbm.Ansatz(n).wavefunction(theta), got)
        pulled = rng.normal(size=(2, 2**n)) + 1j * rng.normal(size=(2, 2**n))
        beta = rng.normal(size=2)
        fresh = rbm.Ansatz(n)
        assert np.array_equal(fresh.wavefunction(thetas), stacked)
        assert np.array_equal(
            ansatz.gradient(stacked, pulled, beta),
            fresh.gradient(stacked, pulled, beta),
        )


class TestRotatedProbability:
    def test_all_z_equals_squared_amplitude(self):
        state = rbm.NqsState.uniform_init(3, seed=5, scale=0.4, phase_scale=0.9)
        vec = amplitudes(state)
        probs = ms.probabilities_vector(vec, "zzz")
        for outcome in ("+++", "+-+"):
            index = ms.outcome_strings(3).index(outcome)
            assert probs[index] == pytest.approx(abs(vec[index]) ** 2, abs=1e-12)

    def test_uniform_state_is_plus_state(self):
        state = rbm.NqsState(zero_params(1), zero_params(1))
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
        params = zero_params(3)
        samples = rbm.gibbs_sample(params, 100_000, burn_in=50, thin=1, seed=1)
        tv = 0.5 * np.abs(sample_histogram(samples) - 1 / 8).sum()
        assert tv <= 0.02

    def test_biased_single_visible(self):
        params = rbm.RbmParams(np.zeros((1, 1)), np.array([3.0]), np.zeros(1))
        samples = rbm.gibbs_sample(params, 100_000, burn_in=100, thin=1, seed=2)
        frac = float((samples == 1).mean())
        assert frac == pytest.approx(1 / (1 + np.exp(-6)), abs=0.01)

    def test_deterministic_per_seed(self):
        params = zero_params(2)
        a = rbm.gibbs_sample(params, 500, burn_in=10, thin=3, seed=7)
        b = rbm.gibbs_sample(params, 500, burn_in=10, thin=3, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (500, 2)

    def test_sample_count_not_a_multiple_of_the_chains(self):
        params = zero_params(3)
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
        # Packed, then read back through the [a, b, W] slices of the layout.
        state = rbm.NqsState.uniform_init(3, seed=1, scale=0.2, phase_scale=0.7)
        theta = rbm.pack_parameters(state)
        assert theta.shape == (rbm.n_parameters(3),)
        for (a, b, w), net in zip(
            network_parts(theta, 3), (state.amplitude_net, state.phase_net)
        ):
            assert np.array_equal(a, net.visible_bias)
            assert np.array_equal(b, net.hidden_bias)
            assert np.array_equal(w, net.weights)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_initial_parameters_pinned_to_per_part_draw(self, n):
        # Each network's block is the draw of a, b and then W, the amplitude
        # network within +-0.01 and then the phase network within +-0.5.
        for seed in (0, 3, 7, 10003, 20004):
            rng = np.random.default_rng(seed)
            want = np.concatenate(
                [
                    part
                    for scale in (0.01, 0.5)
                    for part in (
                        rng.uniform(-scale, scale, size=n),
                        rng.uniform(-scale, scale, size=n),
                        rng.uniform(-scale, scale, size=(n, n)).ravel(),
                    )
                ]
            )
            got = rbm.Ansatz(n).initial_parameters(seed, projected=False)
            assert got.shape == (rbm.n_parameters(n),)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_uniform_init_pinned_to_per_part_draw(self, n):
        # One generator draws W, a and then b of the amplitude network within
        # +-scale, then those of the phase network within +-phase_scale
        # (+-scale when it is None): the draws criterion 4's targets come from.
        for seed, scale, phase_scale in ((0, 0.01, None), (5, 0.4, 0.9), (11, 0.3, 1.0)):
            rng = np.random.default_rng(seed)
            want = [
                (
                    rng.uniform(-half, half, size=(n, n)),
                    rng.uniform(-half, half, size=n),
                    rng.uniform(-half, half, size=n),
                )
                for half in (scale, scale if phase_scale is None else phase_scale)
            ]
            state = rbm.NqsState.uniform_init(
                n, seed=seed, scale=scale, phase_scale=phase_scale
            )
            for (w, a, b), net in zip(want, (state.amplitude_net, state.phase_net)):
                assert np.array_equal(net.weights, w)
                assert np.array_equal(net.visible_bias, a)
                assert np.array_equal(net.hidden_bias, b)
        # Criterion 4's first target: the first and the last value drawn.
        target = rbm.NqsState.uniform_init(2, seed=300, scale=0.4, phase_scale=0.8)
        assert target.amplitude_net.weights[0, 0] == 0.13629607093500273
        assert target.phase_net.hidden_bias[1] == -0.13311080762994043
