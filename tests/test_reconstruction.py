import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from eigentomo import costs, measurement as ms, reconstruction as rc, training
from eigentomo import states as st

from conftest import (
    dense_probabilities,
    drift_at_step_three,
    random_density_matrix,
    random_pure,
)


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
        max_epochs=3000,
        seed=seed,
        restarts=2,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


def truncation(rho, r):
    """The exact rank-r spectral truncation of a known state."""
    spectrum = st.eigendecompose(rho)
    return rc.SpectralApprox(spectrum.eigenvalues[:r], spectrum.vectors[:, :r])


def approx_of(weights, states):
    """A SpectralApprox of the given weights and StateVectors."""
    return rc.SpectralApprox(weights, np.column_stack([s.amplitudes for s in states]))


class TestSpectralApprox:
    def test_density_matrix_normalized(self):
        approx = rc.SpectralApprox([0.6, 0.2], np.eye(4)[:, :2])
        rho = approx.density_matrix()
        assert np.trace(rho.entries).real == pytest.approx(1.0)
        assert rho.entries[0, 0].real == pytest.approx(0.75)

    def test_rejects_overlapping_pairs(self):
        # Squared overlaps 0.2 and 1e-8 (above the old 1e-3 rule's reach):
        # the states must be orthonormal within states.GRAM_ATOL.
        for sq in (0.2, 1e-8):
            other = st.StateVector.normalized([np.sqrt(sq), np.sqrt(1 - sq), 0, 0])
            with pytest.raises(ValueError, match="orthonormal"):
                approx_of([0.6, 0.2], [basis_vector(4, 0), other])

    def test_rejects_unnormalized_states(self):
        with pytest.raises(ValueError, match="orthonormal"):
            rc.SpectralApprox([0.6], 1.001 * np.eye(4)[:, :1])

    def test_rejects_weight_excess(self):
        with pytest.raises(ValueError, match="sum"):
            rc.SpectralApprox([0.8, 0.3], np.eye(4)[:, :2])

    def test_rejects_weights_outside_unit_interval(self):
        for weights in ([-0.1, 0.5], [1.2]):
            vectors = np.eye(4)[:, : len(weights)]
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                rc.SpectralApprox(weights, vectors)

    def test_rejects_mismatched_shapes(self):
        for weights, vectors in (([0.5], np.eye(4)[:, :2]), ([], np.eye(4)[:, :0])):
            with pytest.raises(ValueError, match="disagree"):
                rc.SpectralApprox(weights, vectors)
        with pytest.raises(ValueError, match="power of two"):
            rc.SpectralApprox([0.5], np.eye(3)[:, :1])

    def test_arrays_are_read_only(self):
        approx = rc.SpectralApprox([0.6, 0.2], np.eye(4)[:, :2])
        with pytest.raises(ValueError):
            approx.weights[0] = 0.5
        with pytest.raises(ValueError):
            approx.vectors[0, 0] = 0.5

    def test_state_is_its_column(self):
        approx = approx_of([0.6, 0.2], [ms.bell_states()[1], ms.bell_states()[3]])
        assert approx.n_qubits == 2 and approx.rank == 2
        assert np.array_equal(approx.state(1).amplitudes, ms.bell_states()[3].amplitudes)

    def test_from_spectrum(self, bell_rho):
        spectrum = st.eigendecompose(bell_rho)
        approx = truncation(bell_rho, 2)
        assert approx.rank == 2
        assert approx.weight_sum == pytest.approx(0.99, abs=1e-12)
        assert np.array_equal(approx.weights, spectrum.eigenvalues[:2])
        assert np.array_equal(approx.vectors, spectrum.vectors[:, :2])


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
        dominant = st.eigendecompose(bell_rho).eigenvector(0)
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
        rho = st.DensityMatrix(np.eye(2) / 2, 1)
        data = ms.exact_dataset(rho, ["z"])
        psi = st.StateVector.normalized([1.0, 1.0])
        _, record = rc.estimate_dominant_eigenvalue(data, psi, 1e-6)
        assert record == 0

    def test_excluded_records_are_skipped(self):
        rho = st.DensityMatrix(np.eye(2) / 2, 1)
        data = ms.exact_dataset(rho, ["z", "x"])
        psi = st.StateVector.normalized([1.0, 1.0])
        # Records x+, x-, z+, z-: ratios 0.5 / 1, none (q = 0), then the
        # tied 1 and 1.
        cases = [(None, 0.5, 0), ([0], 1.0, 2), ([2, 0], 1.0, 3)]
        for excluded, value, record in cases:
            found = rc.estimate_dominant_eigenvalue(data, psi, 1e-6, excluded)
            assert found == (pytest.approx(value), record)
        with pytest.raises(ValueError, match=r"excluded records \[0, 2, 3\]"):
            rc.estimate_dominant_eigenvalue(data, psi, 1e-6, [3, 0, 2])

    def test_no_overestimation_with_exact_eigenstate(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            rho = st.DensityMatrix(random_density_matrix(4, rng), 2)
            spectrum = st.eigendecompose(rho)
            data = ms.exact_dataset(rho, ms.generate_basis_set(2, "full"))
            value, _ = rc.estimate_dominant_eigenvalue(
                data, spectrum.eigenvector(0), 1e-8
            )
            assert value >= spectrum.eigenvalues[0] - 1e-10
            assert value <= 1.0


class TestDeflate:
    def test_record_arithmetic(self):
        data = ms.exact_dataset(st.DensityMatrix(np.eye(2) / 2, 1), ["z"])
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


    def test_excluded_records_exempt_from_negativity_check(self):
        rho = diag_mixture([0.6, 0.4])
        data = ms.exact_dataset(rho, ["z", "x"])
        psi = st.StateVector.normalized([1.0, 0.5])
        # Ratios 0.5 / 0.9 and 5 in x, 0.75 and 2 in z: leaving out record 0
        # raises the estimate to 0.75, which overshoots that record.
        value, record = rc.estimate_dominant_eigenvalue(data, psi, 1e-6, [0])
        assert (value, record) == (pytest.approx(0.75), 2)
        with pytest.raises(ValueError, match="overestimated"):
            rc.deflate(data, psi, value, floor=1e-6)
        deflated = rc.deflate(data, psi, value, floor=1e-6, excluded=[0])
        assert deflated.probabilities[0, 0] == 0.0
        assert np.allclose(deflated.probabilities.sum(axis=1), 1.0)


class TestLogLikelihood:
    def test_exact_reproduction_gives_negative_entropy(self):
        psi = st.StateVector.normalized([0.6, 0.8])
        data = ms.exact_dataset(st.DensityMatrix.from_pure(psi), ["z", "x"])
        approx = approx_of([1.0], [psi])
        p = data.probabilities[data.probabilities > 0]
        assert rc.log_likelihood(approx, data) == pytest.approx(
            float((p * np.log(p)).sum()), abs=1e-9
        )

    def test_correct_second_pair_improves(self):
        rho = diag_mixture([0.7, 0.3])
        data = ms.exact_dataset(rho, ["z", "x"])
        rank1 = rc.SpectralApprox([0.7], np.eye(2)[:, :1])
        rank2 = rc.SpectralApprox([0.7, 0.3], np.eye(2))
        assert rc.log_likelihood(rank2, data) > rc.log_likelihood(rank1, data)

    def test_bogus_second_pair_does_not_improve(self):
        psi = basis_vector(2, 0)
        data = ms.exact_dataset(st.DensityMatrix.from_pure(psi), ["z", "x"])
        rank1 = approx_of([0.95], [psi])
        bogus = approx_of([0.95, 0.05], [psi, basis_vector(2, 1)])
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
            approx = rc.SpectralApprox(weights, vectors)
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
        approx = approx_of([1.0], [ms.bell_states()[0]])
        value = rc.log_likelihood(approx, sampled)
        q = ms.probabilities_vector(ms.bell_states()[0].amplitudes, "zz")
        expected = float(
            (sampled.counts[0] * np.log(np.maximum(q, 1e-12))).sum()
        )
        assert value == pytest.approx(expected, rel=1e-9)


class TestRelativeFidelity:
    def test_optimal_truncation_gives_one(self, bell_rho):
        for r in (1, 2, 3):
            approx = truncation(bell_rho, r)
            assert rc.relative_fidelity(bell_rho, approx) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_wrong_second_vector_matches_direct_evaluation(self):
        rho = diag_mixture([0.7, 0.2, 0.07, 0.03])
        approx = rc.SpectralApprox([0.7, 0.2], np.eye(4)[:, [0, 2]])
        direct = st.fidelity(rho, approx.density_matrix()) / 0.9
        assert rc.relative_fidelity(rho, approx) == pytest.approx(direct, abs=1e-12)


class TestReconstruct:
    def test_one_rotation_and_one_table_per_step(self, bell_dataset, monkeypatch):
        # A rank-2 Bell run builds one BasisRotation, for both steps' cost
        # engines and every table.  Each step computes its state's outcome
        # table once (for the estimate, the discard count and the deflation)
        # and one likelihood: four kernel calls, of ranks 1, 1, 1 and 2.
        builds, ranks = [], []
        init, mixture = ms.BasisRotation.__init__, ms.mixture_probabilities

        def counting_init(rotation, *args):
            builds.append(args)
            init(rotation, *args)

        def counting_mixture(weights, vectors, bases):
            ranks.append(np.shape(vectors)[1])
            return mixture(weights, vectors, bases)

        monkeypatch.setattr(ms.BasisRotation, "__init__", counting_init)
        monkeypatch.setattr(ms, "mixture_probabilities", counting_mixture)
        config = quick_config(seed=3, max_epochs=300)
        approx, report = rc.reconstruct(bell_dataset, 2, config, floor=1e-2)
        assert [step.accepted for step in report.steps] == [True, True]
        assert approx.rank == 2
        assert len(builds) == 1
        assert ranks == [1, 1, 1, 2]
        # The shared rotation does not outlive the run.
        assert ms.basis_rotation.cache_info().currsize == 0

    def test_step_one_abort_drops_the_shared_rotation(self):
        # One cost evaluation leaves the fit far from |00>, so a record of
        # zero probability keeps predicted weight above the floor and step 1
        # estimates 0: the run raises, and the memo is cleared all the same.
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(basis_vector(4, 0)),
            ms.generate_basis_set(2, "full"),
        )
        config = quick_config(max_epochs=1, restarts=1)
        with pytest.raises(ValueError, match="dominant eigenvalue estimate is zero"):
            rc.reconstruct(data, 2, config, floor=1e-6)
        assert ms.basis_rotation.cache_info().currsize == 0

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
            assert approx.weights[1] <= 0.01

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
        assert np.array_equal(approx.vectors[:, 0], psi.amplitudes)

    def test_aborted_restart_reaches_the_notes(self, bell_dataset, monkeypatch):
        # Restart 1's first cost is NaN, as in training's aborted-restart test.
        evaluate = costs.CostEngine.value_and_grad
        calls = []

        def first_cost_of_restart1_nan(self, theta):
            cost, grad = evaluate(self, theta)
            if not calls:
                cost = cost.copy()
                cost[1] = np.nan
            calls.append(len(theta))
            return cost, grad

        monkeypatch.setattr(
            costs.CostEngine, "value_and_grad", first_cost_of_restart1_nan
        )
        config = quick_config(seed=20, max_epochs=300, restarts=3)
        _, report = rc.reconstruct(bell_dataset, 1, config, floor=1e-2)
        assert report.notes == ["step 1: restart 1 aborted: non-finite initial cost"]

    def test_restarts_above_seed_stride_rejected(self, bell_dataset):
        config = quick_config(restarts=rc.STEP_SEED_STRIDE + 1)
        with pytest.raises(ValueError, match="seed"):
            rc.reconstruct(bell_dataset, 2, config)

    def test_truth_of_another_qubit_count_rejected_before_any_fit(
        self, monkeypatch, bell_dataset, w4_rho
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("reconstruct fitted before checking true_rho")

        monkeypatch.setattr(rc, "train_next_eigenstate", no_fit)
        with pytest.raises(ValueError, match="true_rho has 4 qubits, the dataset 2"):
            rc.reconstruct(bell_dataset, 2, quick_config(), true_rho=w4_rho)

    def test_later_steps_exclude_earlier_argmin_records(self, w4_rho):
        # Criterion 2's run: step 1's argmin record is deflated to (about)
        # zero, and would otherwise pin step 2's minimum ratio near 0.
        data = ms.exact_dataset(w4_rho, ms.generate_basis_set(4, "compressed", 7))
        config = quick_config(seed=3, max_epochs=30000, restarts=3)
        _, report = rc.reconstruct(data, 2, config, floor=1e-2)
        first, second = report.steps
        assert first.excluded_records == ()
        assert first.argmin_record in second.excluded_records
        assert second.argmin_record not in second.excluded_records
        assert second.weight_raw > 0

    @pytest.mark.parametrize("seed", [7, 8])
    def test_w4_rank_two_at_more_fit_seeds(self, w4_rho, seed):
        # Criterion 2's run at fit seeds other than its own: step 2 fits
        # within the complement of step 1's state and is kept.
        data = ms.exact_dataset(w4_rho, ms.generate_basis_set(4, "compressed", 7))
        config = quick_config(seed=seed, max_epochs=30000, restarts=3)
        approx, report = rc.reconstruct(data, 2, config, floor=1e-2)
        assert approx.rank == 2
        assert [step.accepted for step in report.steps] == [True, True]
        assert rc.relative_fidelity(w4_rho, approx) >= 0.95

    def test_w4_rank_three_runs_three_steps(self, w4_rho):
        data = ms.exact_dataset(w4_rho, ms.generate_basis_set(4, "compressed", 7))
        config = quick_config(seed=3, max_epochs=30000, restarts=3)
        approx, report = rc.reconstruct(data, 3, config, floor=1e-2)
        assert approx.rank == 3
        assert [step.accepted for step in report.steps] == [True, True, True]
        gram = approx.vectors.conj().T @ approx.vectors
        assert np.abs(gram - np.eye(3)).max() <= 1e-14

    def test_ranks_above_the_dimension_stop_at_it(self):
        # Four states span two qubits; a fifth step has nothing to fit.
        rho = diag_mixture([0.4, 0.3, 0.2, 0.1])
        data = ms.exact_dataset(rho, ms.generate_basis_set(2, "full"))
        approx, report = rc.reconstruct(
            data, 6, quick_config(seed=5, max_epochs=300), floor=1e-2
        )
        assert [step.accepted for step in report.steps] == [True] * 4
        assert approx.rank == 4

    def test_drifted_step_rejected_not_the_run(self, monkeypatch):
        # Step 3's state drifts into the span of steps 1-2 (by construction,
        # see ``drift_at_step_three``), so it is orthogonal to them only to
        # 1e-6: the step is rejected, and the run keeps rank 2.
        rho = diag_mixture([0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02])
        data = ms.exact_dataset(rho, ms.generate_basis_set(3, "full"))
        monkeypatch.setattr(rc, "train_next_eigenstate", drift_at_step_three)
        approx, report = rc.reconstruct(
            data, 8, quick_config(seed=3, max_epochs=300), floor=1e-2
        )
        assert approx.rank == 2
        assert [step.accepted for step in report.steps] == [True, True, False]
        rejected = report.steps[2]
        assert rejected.likelihood_after is None
        assert rejected.likelihood_before == report.steps[1].likelihood_after
        (note,) = report.notes
        deviation = re.fullmatch(
            r"step 3 rejected: its state is not orthogonal to the kept states "
            r"\(Gram deviation (\S+) > 1e-10\)",
            note,
        ).group(1)
        assert float(deviation) > st.GRAM_ATOL

    def test_zero_weight_step_rejected_whatever_the_likelihood(
        self, monkeypatch, bell_dataset
    ):
        # Round-off in a zero-weight column can raise the likelihood; the step
        # is rejected all the same, and the run keeps rank 1.
        inner = rc.estimate_dominant_eigenvalue
        estimates = []

        def zero_at_step_two(*args):
            value, record = inner(*args)
            estimates.append(value)
            return (value if len(estimates) == 1 else 0.0), record

        rising = iter(range(10))
        monkeypatch.setattr(rc, "estimate_dominant_eigenvalue", zero_at_step_two)
        monkeypatch.setattr(rc, "log_likelihood", lambda approx, data: float(next(rising)))
        approx, report = rc.reconstruct(
            bell_dataset, 3, quick_config(seed=3, max_epochs=300), floor=1e-2
        )
        assert approx.rank == 1
        assert [step.accepted for step in report.steps] == [True, False]
        rejected = report.steps[1]
        assert rejected.weight == 0.0
        assert rejected.likelihood_after is None
        assert report.notes == ["step 2 rejected: its eigenvalue estimate is 0"]

    def test_falling_likelihood_step_rejected_with_a_note(self, monkeypatch, bell_dataset):
        falling = iter([-1.0, -2.0])
        monkeypatch.setattr(rc, "log_likelihood", lambda approx, data: next(falling))
        approx, report = rc.reconstruct(
            bell_dataset, 3, quick_config(seed=3, max_epochs=300), floor=1e-2
        )
        assert approx.rank == 1
        assert [step.accepted for step in report.steps] == [True, False]
        assert report.notes == ["step 2 rejected: the likelihood did not rise (-2.0 <= -1.0)"]

    def test_rising_estimate_noted_as_inverted_order(self, monkeypatch, bell_dataset):
        # Step 2's raw 0.6 of the remaining 0.7 is 0.42, above step 1's 0.3.
        inner = rc.estimate_dominant_eigenvalue
        raw = iter([0.3, 0.6])
        monkeypatch.setattr(
            rc, "estimate_dominant_eigenvalue",
            lambda *args: (next(raw), inner(*args)[1]),
        )
        rising = iter([-2.0, -1.0])
        monkeypatch.setattr(rc, "log_likelihood", lambda approx, data: next(rising))
        approx, report = rc.reconstruct(
            bell_dataset, 2, quick_config(seed=3, max_epochs=300), floor=1e-2
        )
        assert approx.rank == 2
        assert [step.accepted for step in report.steps] == [True, True]
        assert report.notes == [
            "step 2 estimate (0.42) exceeds the previous one (0.3); "
            "extraction order inverted"
        ]

    def test_unit_estimate_exhausts_the_statistics(self, monkeypatch, bell_dataset):
        inner = rc.estimate_dominant_eigenvalue
        monkeypatch.setattr(
            rc, "estimate_dominant_eigenvalue", lambda *args: (1.0, inner(*args)[1])
        )
        approx, report = rc.reconstruct(
            bell_dataset, 3, quick_config(seed=3, max_epochs=300), floor=1e-2
        )
        assert approx.rank == 1
        assert [step.step for step in report.steps] == [1]
        assert report.notes == ["step 1 exhausted the statistics; stopping early"]

    def test_bell_rank_three_runs_three_steps(self, bell_rho, bell_dataset):
        # Step 3 fits within the complement of the two fitted states.
        config = quick_config(seed=3, max_epochs=30000, restarts=3)
        approx, report = rc.reconstruct(
            bell_dataset, 3, config, floor=1e-2, true_rho=bell_rho
        )
        assert approx.rank == 3
        assert [step.accepted for step in report.steps] == [True, True, True]
        assert approx.weights[2] == pytest.approx(0.009, abs=2e-3)
        assert report.steps[2].eigenstate_fidelity >= 0.999

    def test_report_serializable(self):
        target = basis_vector(2, 0)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(target), ["z", "x"]
        )
        approx, report = rc.reconstruct(
            data, 1, quick_config(seed=22, max_epochs=800, restarts=1), floor=1e-2
        )
        # The form result.json writes: each step as a dict, and the notes.
        doc = json.loads(
            json.dumps(
                {"report": [asdict(s) for s in report.steps], "notes": report.notes}
            )
        )
        assert doc["report"][0]["step"] == 1
        assert doc["report"][0]["accepted"] is True
        assert approx.rank == 1
