import numpy as np
import pytest

from eigentomo import figures, measurement as ms, reconstruction as rc
from eigentomo import states as st


class TestCostComparisonGrid:
    def test_zero_strength_rows_sit_at_floor(self, w4_rho):
        bases = ms.generate_basis_set(4, "compressed", 7)
        zero_rows, _ = figures.cost_comparison_grid(
            w4_rho, bases, 1, seed=1, strength_max=0.0
        )
        zero = zero_rows[0]
        assert zero.eps_fidelity == pytest.approx(0.0, abs=1e-9)
        assert zero.fidelity == pytest.approx(1.0, abs=1e-12)
        perturbed, _ = figures.cost_comparison_grid(w4_rho, bases, 20, seed=1)
        for kind in ("l1", "l15", "l2"):
            floor = min(row.costs[kind] for row in perturbed)
            median = float(np.median([row.costs[kind] for row in perturbed]))
            assert zero.costs[kind] <= 1.01 * floor
            assert zero.costs[kind] < median

    def test_grid_shape_and_monotone_strengths(self, w4_rho):
        bases = ms.generate_basis_set(4, "compressed", 7)
        rows, correlations = figures.cost_comparison_grid(w4_rho, bases, 12, seed=2)
        assert len(rows) == 12
        strengths = [row.strength for row in rows]
        assert strengths == sorted(strengths)
        assert set(correlations) == set(figures.GRID_COSTS)

    def test_one_outcome_table_per_row(self, w4_rho, monkeypatch):
        # Each perturbed state's outcome table serves its eigenvalue estimate
        # and its costs: one kernel call a row, and the rows and correlations
        # of an estimate that computes its own table.
        bases = ms.generate_basis_set(4, "compressed", 7)
        calls = []
        mixture = ms.mixture_probabilities

        def counting(*args):
            calls.append(args)
            return mixture(*args)

        monkeypatch.setattr(ms, "mixture_probabilities", counting)
        grid = figures.cost_comparison_grid(w4_rho, bases, 10, seed=2)
        assert len(calls) == 10
        estimate = rc.estimate_dominant_eigenvalue
        monkeypatch.setattr(
            rc,
            "estimate_dominant_eigenvalue",
            lambda data, psi, floor, predicted: estimate(data, psi, floor),
        )
        assert figures.cost_comparison_grid(w4_rho, bases, 10, seed=2) == grid
        assert len(calls) == 30

    def test_display_scalings(self, bell_rho):
        bases = ms.generate_basis_set(2, "full")
        rows, _ = figures.cost_comparison_grid(bell_rho, bases, 5, seed=3)
        spectrum = st.eigendecompose(bell_rho)
        p1 = spectrum.eigenvalues[0]
        for row in rows:
            assert row.eps_fidelity == pytest.approx(
                6000 * (1 - row.fidelity), rel=1e-12
            )
            assert row.eps_p1 == pytest.approx(
                10 * (p1 - row.p1_estimate) / p1, rel=1e-9
            )


class TestEntropyTables:
    def test_w4_row_counts(self, w4_rho):
        bases = ms.generate_basis_set(4, "full")
        entropy_rows, probability_rows = figures.entropy_tables(w4_rho, bases)
        assert len(entropy_rows) == 81
        assert len(probability_rows) == 1296

    def test_entropy_reduction_share(self, w4_rho):
        bases = ms.generate_basis_set(4, "full")
        entropy_rows, _ = figures.entropy_tables(w4_rho, bases)
        reduced = sum(1 for _, mixed, pure in entropy_rows if pure <= mixed)
        assert reduced >= 0.95 * len(entropy_rows)

    def test_probability_rows_normalized_per_basis(self, bell_rho):
        bases = ["xx", "zy"]
        _, probability_rows = figures.entropy_tables(bell_rho, bases)
        for basis in bases:
            mixed = sum(r[2] for r in probability_rows if r[0] == basis)
            pure = sum(r[3] for r in probability_rows if r[0] == basis)
            assert mixed == pytest.approx(1.0, abs=1e-9)
            assert pure == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        rho = st.DensityMatrix(np.eye(4) / 4, 2)
        rows, _ = figures.entropy_tables(rho, ["zz", "xy"])
        for _, mixed, _ in rows:
            assert mixed == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_pure_computational_state_zero_entropy(self):
        psi = st.StateVector.normalized([1, 0, 0, 0])
        rho = st.DensityMatrix.from_pure(psi)
        rows, _ = figures.entropy_tables(rho, ["zz", "xx"])
        zz, xx = rows
        assert zz[1] == pytest.approx(0.0, abs=1e-12)
        assert zz[2] == pytest.approx(0.0, abs=1e-12)
        assert xx[2] == pytest.approx(2 * np.log(2), abs=1e-12)
