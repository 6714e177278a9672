import numpy as np
import pytest

from eigentomo import costs, figures, measurement as ms, rbm
from eigentomo import states as st

from conftest import random_pure


def finite_difference_gradient(engine, theta, step=1e-5):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        grad[i] = (engine.value(plus) - engine.value(minus)) / (2 * step)
    return grad


def random_state(n, seed):
    return rbm.NqsState.uniform_init(n, seed=seed, scale=0.4, phase_scale=0.8)


def value_and_grad(spec, state, data):
    return costs.CostEngine(spec, data).value_and_grad(rbm.pack_parameters(state))


class TestCostSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            costs.CostSpec("l2")

    def test_rejects_non_orthonormal_states(self):
        a = st.StateVector.normalized([1.0, 0.0])
        b = st.StateVector.normalized([0.9, 0.1])
        with pytest.raises(ValueError):
            costs.CostSpec("l15", orth_states=(a, b))


class TestCostTerms:
    def test_half_quarter_arithmetic(self):
        assert costs.cost_terms("l1", 0.5, 0.25, 1e-12) == pytest.approx(0.25)
        assert costs.cost_terms("l15", 0.5, 0.25, 1e-12) == pytest.approx(0.125)
        assert costs.cost_terms("kl1", 0.5, 0.25, 1e-12) == pytest.approx(
            0.5 * np.log(2)
        )

    def test_kl2_mirror(self):
        assert costs.cost_terms("kl2", 0.25, 0.5, 1e-12) == pytest.approx(
            0.5 * np.log(2)
        )

    def test_zero_probability_terms_vanish(self):
        assert costs.cost_terms("kl1", 0.0, 0.3, 1e-12) == 0.0
        assert costs.cost_terms("kl2", 0.3, 0.0, 1e-12) == 0.0

    def test_denominator_floor_keeps_terms_finite(self):
        value = costs.cost_terms("kl1", np.array([0.5]), np.array([0.0]), 1e-12)
        assert np.isfinite(value).all()

    def test_terms_and_grads_equal_closed_forms(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(6), size=5)
        q = rng.dirichlet(np.ones(6), size=5)
        # Zeros on either side, a q below the floor and a kink at p == q.
        p[0, :3] = 0.0
        q[1, :2] = 0.0
        q[2, 0] = 1e-14
        q[3, :] = p[3, :]
        floor = costs.DENOM_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pq = np.log(p) - np.log(np.maximum(q, floor))
            log_qp = np.log(q) - np.log(np.maximum(p, floor))
            closed = {
                "l1": (np.abs(p - q), np.sign(q - p)),
                "l15": (
                    np.abs(p - q) * np.sqrt(np.abs(p - q)),
                    1.5 * np.sqrt(np.abs(q - p)) * np.sign(q - p),
                ),
                "kl1": (
                    np.where(p > 0, p * log_pq, 0.0),
                    np.where((p > 0) & (q >= floor), -p / q, 0.0),
                ),
                "kl2": (
                    np.where(q > 0, q * log_qp, 0.0),
                    np.where(q > 0, log_qp + 1.0, 0.0),
                ),
            }
        for kind in costs.COST_KINDS:
            terms, grads = costs.cost_terms_and_grads(kind, p, q, floor)
            assert np.array_equal(terms, closed[kind][0]), kind
            assert np.array_equal(grads, closed[kind][1]), kind
            assert np.array_equal(costs.cost_terms(kind, p, q, floor), terms), kind

    def test_total_cost_non_negative_on_distributions(self):
        # Individual divergence terms may be negative; the sum over a full
        # outcome distribution never is.
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            for kind in costs.COST_KINDS:
                assert costs.cost_terms(kind, p, q, 1e-12).sum() >= -1e-12


class TestCostValue:
    def test_zero_at_exact_reproduction(self):
        state = random_state(2, seed=3)
        vec = rbm.to_state_vector(state)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(vec), ms.generate_basis_set(2, "full")
        )
        for kind in costs.COST_KINDS:
            value, _ = value_and_grad(costs.CostSpec(kind), state, data)
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_orthogonality_penalty_added(self):
        state = random_state(2, seed=4)
        vec = rbm.to_state_vector(state)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(vec), ["zz"]
        )
        spec = costs.CostSpec("l1", orth_states=(vec,))
        assert value_and_grad(spec, state, data)[0] == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_sizes_rejected(self, bell_dataset):
        state = random_state(3, seed=5)
        with pytest.raises(ValueError, match="expected 16 parameters"):
            value_and_grad(costs.CostSpec("l1"), state, bell_dataset)

    def test_value_and_grad_consistent_with_value(self, bell_dataset):
        spec = costs.CostSpec("l15")
        engine = costs.CostEngine(spec, bell_dataset)
        theta = rbm.pack_parameters(random_state(2, seed=6))
        value, _ = engine.value_and_grad(theta)
        assert value == pytest.approx(engine.value(theta), rel=1e-12)


class TestCostGradient:
    def test_gradient_zero_at_smooth_minimum(self):
        state = random_state(2, seed=7)
        vec = rbm.to_state_vector(state)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(vec), ms.generate_basis_set(2, "full")
        )
        _, grad = value_and_grad(costs.CostSpec("kl1"), state, data)
        assert np.linalg.norm(grad) <= 1e-8

    def test_orth_only_gradient_vanishes_when_orthogonal(self):
        state = random_state(2, seed=8)
        vec = rbm.to_state_vector(state).amplitudes
        rng = np.random.default_rng(9)
        raw = random_pure(4, rng)
        raw -= vec * np.vdot(vec, raw)
        orth = st.StateVector.normalized(raw)
        data = ms.MeasurementDataset(2, (), np.zeros((0, 4)), None, "exact")
        spec = costs.CostSpec("l15", orth_states=(orth,))
        engine = costs.CostEngine(spec, data)
        value, grad = engine.value_and_grad(rbm.pack_parameters(state))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(grad) <= 1e-8

    def test_matches_finite_differences_all_kinds(self):
        rng = np.random.default_rng(10)
        cases = [(2, "full"), (3, "full")] * 10
        cases += [(4, "compressed"), (5, "compressed")] * 3
        for instance, (n, mode) in enumerate(cases):
            target = random_state(n, seed=100 + instance)
            data = ms.exact_dataset(
                st.DensityMatrix.from_pure(rbm.to_state_vector(target)),
                ms.generate_basis_set(n, mode, seed=instance),
            )
            orth = rbm.to_state_vector(random_state(n, seed=200 + instance))
            theta = rng.uniform(-0.5, 0.5, rbm.n_parameters(n))
            for kind in costs.COST_KINDS:
                spec = costs.CostSpec(kind, orth_states=(orth,))
                engine = costs.CostEngine(spec, data)
                _, grad = engine.value_and_grad(theta)
                expected = finite_difference_gradient(engine, theta)
                scale = np.maximum(np.abs(expected), 1e-8)
                assert (np.abs(grad - expected) / scale).max() <= 1e-5

    def test_gradient_structure_shapes(self, bell_dataset):
        _, grad = value_and_grad(
            costs.CostSpec("l15"), random_state(2, seed=11), bell_dataset
        )
        assert grad.shape == (rbm.n_parameters(2),)
        (a, b, w), (pa, pb, pw) = rbm.split_parameters(grad, 2)
        assert w.shape == pw.shape == (2, 2)
        assert a.shape == b.shape == pa.shape == pb.shape == (2,)


class TestMonotoneSensitivity:
    def test_l15_non_decreasing_away_from_minimum(self):
        state = random_state(2, seed=12)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(rbm.to_state_vector(state)),
            ms.generate_basis_set(2, "full"),
        )
        engine = costs.CostEngine(costs.CostSpec("l15"), data)
        theta = rbm.pack_parameters(state)
        rng = np.random.default_rng(13)
        monotone = 0
        for _ in range(50):
            direction = rng.normal(size=theta.size)
            direction /= np.linalg.norm(direction)
            values = [
                engine.value(theta + t * direction)
                for t in (0.0, 0.002, 0.004, 0.008)
            ]
            monotone += int(all(b >= a - 1e-12 for a, b in zip(values, values[1:])))
        assert monotone >= 45


class TestCostRankingGrid:
    def test_l15_tracks_fidelity_better_than_kl1(self, w4_rho):
        bases = ms.generate_basis_set(4, "compressed", 7)
        _, correlations = figures.cost_comparison_grid(
            w4_rho, bases, 50, seed=21
        )
        assert correlations["l15"] >= 0.8
        assert correlations["l15"] > correlations["kl1"]
