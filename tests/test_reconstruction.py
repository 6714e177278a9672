import numpy as np
import pytest

from eigentomo import costs, measurement as ms, reconstruction as rc, training
from eigentomo import states as st

from conftest import dense_probabilities, random_density_matrix, random_pure


def basis_vector(dim, index):
    v = np.zeros(dim)
    v[index] = 1.0
    return st.StateVector.normalized(v)


def diag_mixture(values):
    return st.DensityMatrix(
        np.diag(values).astype(complex), int(np.log2(len(values)))
    )


def quick_config(seed=0, **overrides):
    base = dict(
        cost=costs.CostSpec("l15"),
        learning_rate=0.5,
        max_epochs=3000,
        seed=seed,
        patience=150,
        tol_rel=1e-6,
        restarts=2,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


class TestSpectralApprox:
    def test_density_matrix_normalized(self):
        approx = rc.SpectralApprox(
            (
                rc.SpectralPair(0.6, basis_vector(4, 0)),
                rc.SpectralPair(0.2, basis_vector(4, 1)),
            )
        )
        rho = approx.density_matrix()
        assert np.trace(rho.entries).real == pytest.approx(1.0)
        assert rho.entries[0, 0].real == pytest.approx(0.75)

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            rc.SpectralApprox(
                (
                    rc.SpectralPair(0.6, basis_vector(4, 0)),
                    rc.SpectralPair(0.2, st.StateVector.normalized([1, 0.5, 0, 0])),
                )
            )

    def test_rejects_weight_excess(self):
        with pytest.raises(ValueError):
            rc.SpectralApprox(
                (
                    rc.SpectralPair(0.8, basis_vector(4, 0)),
                    rc.SpectralPair(0.3, basis_vector(4, 1)),
                )
            )

    def test_from_spectrum(self, bell_rho):
        approx = rc.SpectralApprox.from_spectrum(bell_rho, 2)
        assert approx.rank == 2
        assert approx.weight_sum == pytest.approx(0.99, abs=1e-12)


class TestEstimateDominantEigenvalue:
    def test_exact_for_diagonal_state_with_diagonalizing_basis(self):
        rho = diag_mixture([0.9, 0.1])
        data = ms.exact_dataset(rho, ["z"])
        value, record = rc.estimate_dominant_eigenvalue(
            data, basis_vector(2, 0), floor=1e-6
        )
        assert value == pytest.approx(0.9, abs=1e-10)
        assert record == 0

    def test_exact_on_larger_diagonal_state(self):
        rho = diag_mixture([0.6, 0.25, 0.1, 0.05])
        data = ms.exact_dataset(rho, ms.generate_basis_set(2, "full"))
        value, _ = rc.estimate_dominant_eigenvalue(data, basis_vector(4, 0), 1e-6)
        assert value == pytest.approx(0.6, abs=1e-10)

    def test_bell_mixture_with_exact_eigenstate(self, bell_rho, bell_dataset):
        dominant = st.eigendecompose(bell_rho).eigenvectors[0]
        value, _ = rc.estimate_dominant_eigenvalue(bell_dataset, dominant, 1e-3)
        assert value == pytest.approx(0.901, abs=1e-9)

    def test_never_exceeds_one(self):
        rho = st.DensityMatrix.from_pure(basis_vector(2, 0))
        data = ms.exact_dataset(rho, ["z", "x"])
        value, _ = rc.estimate_dominant_eigenvalue(data, basis_vector(2, 0), 1e-6)
        assert value <= 1.0

    def test_floor_too_high_raises(self, bell_dataset):
        with pytest.raises(ValueError, match="floor"):
            rc.estimate_dominant_eigenvalue(
                bell_dataset, ms.bell_states()[0], floor=0.9
            )

    def test_tie_breaks_to_smallest_record_index(self):
        rho = st.DensityMatrix.maximally_mixed(1)
        data = ms.exact_dataset(rho, ["z"])
        psi = st.StateVector.normalized([1.0, 1.0])
        _, record = rc.estimate_dominant_eigenvalue(data, psi, 1e-6)
        assert record == 0

    def test_no_overestimation_with_exact_eigenstate(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            rho = st.DensityMatrix(random_density_matrix(4, rng), 2)
            spectrum = st.eigendecompose(rho)
            data = ms.exact_dataset(rho, ms.generate_basis_set(2, "full"))
            value, _ = rc.estimate_dominant_eigenvalue(
                data, spectrum.eigenvectors[0], 1e-8
            )
            assert value >= spectrum.eigenvalues[0] - 1e-10
            assert value <= 1.0


class TestDeflate:
    def test_record_arithmetic(self):
        data = ms.exact_dataset(st.DensityMatrix.maximally_mixed(1), ["z"])
        plus = st.StateVector.normalized([1.0, 1.0])
        deflated = rc.deflate(data, plus, 0.9)
        assert np.allclose(deflated.probabilities, [[0.5, 0.5]], atol=1e-12)

    def test_zero_weight_is_identity(self, bell_dataset):
        deflated = rc.deflate(bell_dataset, ms.bell_states()[0], 0.0)
        assert np.allclose(
            deflated.probabilities, bell_dataset.probabilities, atol=1e-12
        )

    def test_weight_one_rejected(self, bell_dataset):
        with pytest.raises(ValueError):
            rc.deflate(bell_dataset, ms.bell_states()[0], 1.0)

    def test_matches_directly_deflated_state(self):
        rho = diag_mixture([0.6, 0.25, 0.1, 0.05])
        bases = ms.generate_basis_set(2, "full")
        data = ms.exact_dataset(rho, bases)
        deflated = rc.deflate(data, basis_vector(4, 0), 0.6)
        residual = np.diag([0.0, 0.625, 0.25, 0.125]).astype(complex)
        expected = ms.exact_dataset(residual, bases)
        assert np.abs(deflated.probabilities - expected.probabilities).max() <= 1e-10

    def test_overestimated_weight_raises(self):
        rho = diag_mixture([0.9, 0.1])
        data = ms.exact_dataset(rho, ["z"])
        with pytest.raises(ValueError, match="overestimated"):
            rc.deflate(data, basis_vector(2, 0), 0.95)

    def test_floored_records_exempt_from_negativity_check(self):
        rho = diag_mixture([0.9, 0.1])
        data = ms.exact_dataset(rho, ["z"])
        psi = st.StateVector.normalized([1.0, 0.02])
        value, _ = rc.estimate_dominant_eigenvalue(data, psi, floor=1e-2)
        deflated = rc.deflate(data, psi, value, floor=1e-2)
        assert deflated.probabilities.min() >= 0.0


class TestLogLikelihood:
    def test_exact_reproduction_gives_negative_entropy(self):
        psi = st.StateVector.normalized([0.6, 0.8])
        data = ms.exact_dataset(st.DensityMatrix.from_pure(psi), ["z", "x"])
        approx = rc.SpectralApprox((rc.SpectralPair(1.0, psi),))
        p = data.probabilities[data.probabilities > 0]
        assert rc.log_likelihood(approx, data) == pytest.approx(
            float((p * np.log(p)).sum()), abs=1e-9
        )

    def test_correct_second_pair_improves(self):
        rho = diag_mixture([0.7, 0.3])
        data = ms.exact_dataset(rho, ["z", "x"])
        rank1 = rc.SpectralApprox((rc.SpectralPair(0.7, basis_vector(2, 0)),))
        rank2 = rc.SpectralApprox(
            (
                rc.SpectralPair(0.7, basis_vector(2, 0)),
                rc.SpectralPair(0.3, basis_vector(2, 1)),
            )
        )
        assert rc.log_likelihood(rank2, data) > rc.log_likelihood(rank1, data)

    def test_bogus_second_pair_does_not_improve(self):
        psi = basis_vector(2, 0)
        data = ms.exact_dataset(st.DensityMatrix.from_pure(psi), ["z", "x"])
        rank1 = rc.SpectralApprox((rc.SpectralPair(0.95, psi),))
        bogus = rc.SpectralApprox(
            (
                rc.SpectralPair(0.95, psi),
                rc.SpectralPair(0.05, basis_vector(2, 1)),
            )
        )
        assert rc.log_likelihood(bogus, data) <= rc.log_likelihood(rank1, data)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_rank_r_matches_dense_reference(self, n):
        rng = np.random.default_rng(40 + n)
        dim = 2**n
        bases = ms.generate_basis_set(n, "full" if n < 4 else "compressed", seed=n)
        for rank in range(1, min(3, dim) + 1):
            g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
            vectors, _ = np.linalg.qr(g)
            weights = rng.dirichlet(np.ones(rank + 1))[:rank]
            approx = rc.SpectralApprox(
                tuple(
                    rc.SpectralPair(float(w), st.StateVector.normalized(v))
                    for w, v in zip(weights, vectors.T)
                )
            )
            rho = random_density_matrix(dim, rng)
            exact = ms.exact_dataset(rho, bases)
            sampled = ms.sample_dataset(rho, bases, 300, seed=rank)
            dense = approx.density_matrix().entries
            for data in (exact, sampled):
                record_weights = (
                    data.counts if data.counts is not None else data.probabilities
                )
                reference = sum(
                    float(
                        record_weights[b]
                        @ np.log(np.maximum(dense_probabilities(dense, basis), 1e-12))
                    )
                    for b, basis in enumerate(data.bases)
                )
                value = rc.log_likelihood(approx, data)
                assert value == pytest.approx(reference, rel=1e-12, abs=0)

    def test_shot_weighting_used_when_counts_present(self, bell_rho):
        sampled = ms.sample_dataset(bell_rho, ["zz"], 100, seed=3)
        approx = rc.SpectralApprox((rc.SpectralPair(1.0, ms.bell_states()[0]),))
        value = rc.log_likelihood(approx, sampled)
        q = ms.probabilities_vector(ms.bell_states()[0].amplitudes, "zz")
        expected = float(
            (sampled.counts[0] * np.log(np.maximum(q, 1e-12))).sum()
        )
        assert value == pytest.approx(expected, rel=1e-9)


class TestRelativeFidelity:
    def test_optimal_truncation_gives_one(self, bell_rho):
        for r in (1, 2, 3):
            approx = rc.SpectralApprox.from_spectrum(bell_rho, r)
            assert rc.relative_fidelity(bell_rho, approx) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_wrong_second_vector_matches_direct_evaluation(self):
        rho = diag_mixture([0.7, 0.2, 0.07, 0.03])
        approx = rc.SpectralApprox(
            (
                rc.SpectralPair(0.7, basis_vector(4, 0)),
                rc.SpectralPair(0.2, basis_vector(4, 2)),
            )
        )
        direct = st.fidelity(rho, approx.density_matrix()) / 0.9
        assert rc.relative_fidelity(rho, approx) == pytest.approx(direct, abs=1e-12)


class TestReconstruct:
    def test_pure_state_data_adds_no_second_pair(self):
        target = ms.bell_states()[0]
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(target), ms.generate_basis_set(2, "full")
        )
        approx, report = rc.reconstruct(
            data, 3, quick_config(seed=21, max_epochs=6000), floor=1e-2
        )
        assert report.steps[0].accepted
        if approx.rank > 1:
            assert approx.pairs[1].weight <= 0.01

    def test_eigenvalue_safety_over_random_states(self):
        rng = np.random.default_rng(50)
        for trial in range(100):
            n = int(rng.integers(1, 5))
            rho = random_density_matrix(2**n, rng)
            spectrum_vecs = np.linalg.eigh(rho)[1]
            if trial % 2:
                psi = st.StateVector.normalized(random_pure(2**n, rng))
            else:
                noisy = spectrum_vecs[:, -1] + 0.05 * random_pure(2**n, rng)
                psi = st.StateVector.normalized(noisy)
            bases = ms.generate_basis_set(n, "compressed", seed=trial)
            data = ms.exact_dataset(rho, bases)
            floor = 1e-6
            value, _ = rc.estimate_dominant_eigenvalue(data, psi, floor)
            predicted = np.stack(
                [ms.probabilities_vector(psi.amplitudes, b) for b in data.bases]
            )
            retained = predicted >= floor
            residual = data.probabilities[retained] - value * predicted[retained]
            assert residual.min() >= -1e-9

    def test_pair_state_is_the_trained_state(self, bell_dataset):
        config = quick_config(seed=23, max_epochs=400)
        approx, _ = rc.reconstruct(bell_dataset, 1, config, floor=1e-2)
        psi, _ = training.train_next_eigenstate(bell_dataset, [], config)
        assert np.array_equal(approx.pairs[0].state.amplitudes, psi.amplitudes)

    def test_report_serializable(self):
        target = basis_vector(2, 0)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(target), ["z", "x"]
        )
        approx, report = rc.reconstruct(
            data, 1, quick_config(seed=22, max_epochs=800, restarts=1), floor=1e-2
        )
        doc = report.as_dict()
        assert doc["steps"][0]["step"] == 1
        assert doc["steps"][0]["accepted"] is True
        assert approx.rank == 1
