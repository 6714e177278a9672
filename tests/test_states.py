import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from eigentomo import measurement as ms
from eigentomo import states as st

from conftest import random_density_matrix, random_pure


def naive_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Independent implementation via Schur-based matrix square roots."""
    root = scipy.linalg.sqrtm(b)
    return float(np.real(np.trace(scipy.linalg.sqrtm(root @ a @ root)) ** 2))


class TestStateVector:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            st.StateVector(np.array([1.0, 1.0]), 1)

    def test_requires_power_of_two_length(self):
        with pytest.raises(ValueError):
            st.StateVector(np.array([1.0, 0.0, 0.0]), 1)

    def test_normalized_factory(self):
        psi = st.StateVector.normalized([3.0, 4.0])
        assert psi.n_qubits == 1
        assert np.allclose(psi.amplitudes, [0.6, 0.8])

    def test_immutable(self):
        psi = st.StateVector.normalized([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            st.DensityMatrix(mat, 1)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            st.DensityMatrix(np.eye(2, dtype=complex), 1)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError):
            st.DensityMatrix(mat, 1)

    def test_maximally_mixed(self):
        rho = st.DensityMatrix.maximally_mixed(2)
        assert np.allclose(rho.entries, np.eye(4) / 4)


class TestFidelity:
    def test_identity_case(self, bell_rho):
        assert st.fidelity(bell_rho, bell_rho) == pytest.approx(1.0, abs=1e-12)

    def test_bell_mixture_dominant_projector(self, bell_rho):
        projector = st.DensityMatrix.from_pure(ms.bell_states()[0])
        assert st.fidelity(bell_rho, projector) == pytest.approx(0.9, abs=1e-12)

    def test_against_naive_sqrtm_including_dim_three(self):
        rng = np.random.default_rng(10)
        for dim in (2, 3, 4, 8):
            pairs = [
                (random_density_matrix(dim, rng), random_density_matrix(dim, rng))
                for _ in range(5)
            ]
            stack = np.array([b for _, b in pairs])
            for a, b in pairs:
                value = st.fidelity(a, b)
                assert isinstance(value, float)
                assert value == pytest.approx(naive_fidelity(a, b), abs=1e-9)
                stacked = st.fidelity(a, stack)
                assert stacked.shape == (5,)
                single = [st.fidelity(a, member) for member in stack]
                np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-13)

    def test_dimension_mismatch(self, bell_rho):
        with pytest.raises(ValueError):
            st.fidelity(bell_rho, st.DensityMatrix.maximally_mixed(1))
        with pytest.raises(ValueError):
            st.fidelity(bell_rho, np.array([np.eye(2) / 2] * 3))

    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        ok = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            st.fidelity(bad, ok)
        with pytest.raises(ValueError):
            st.fidelity(ok, bad)
        with pytest.raises(ValueError, match="positive semi-definite"):
            st.fidelity(ok, np.array([ok, bad, ok]))

    @settings(max_examples=30, deadline=None)
    @given(hst.integers(0, 2**32 - 1), hst.sampled_from([2, 3, 4, 8, 16]))
    def test_symmetry_and_range(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_density_matrix(dim, rng)
        b = random_density_matrix(dim, rng)
        f_ab = st.fidelity(a, b)
        f_ba = st.fidelity(b, a)
        assert 0.0 <= f_ab <= 1.0
        assert f_ab == pytest.approx(f_ba, abs=1e-9)


class TestPureFidelity:
    def test_pure_state_self(self):
        psi = st.StateVector.normalized([1.0, 1.0j])
        rho = st.DensityMatrix.from_pure(psi)
        assert st.pure_fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = st.DensityMatrix.maximally_mixed(2)
        psi = st.StateVector.normalized([1.0, 2.0, 3.0, 4.0])
        assert st.pure_fidelity(rho, psi) == pytest.approx(0.25, abs=1e-12)

    def test_agrees_with_general_fidelity(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 8, 16):
            pairs = [
                (random_density_matrix(dim, rng), random_pure(dim, rng)) for _ in range(25)
            ]
            vs = np.array([v for _, v in pairs])
            projectors = np.einsum("ku,kv->kuv", vs, vs.conj())
            for rho, v in pairs:
                value = st.pure_fidelity(rho, v)
                general = st.fidelity(rho, np.outer(v, v.conj()))
                assert isinstance(value, float)
                assert value == pytest.approx(general, abs=1e-9)
                stacked = st.pure_fidelity(rho, vs)
                assert stacked.shape == (25,)
                single = [st.pure_fidelity(rho, member) for member in vs]
                np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-13)
                np.testing.assert_allclose(
                    st.fidelity(rho, projectors), stacked, rtol=0, atol=1e-9
                )

    def test_dimension_mismatch(self, bell_rho):
        with pytest.raises(ValueError):
            st.pure_fidelity(bell_rho, st.StateVector.normalized([1.0, 0.0]))
        with pytest.raises(ValueError):
            st.pure_fidelity(bell_rho, np.ones((3, 2)) / np.sqrt(2))


class TestTraceDistance:
    def test_identity_case(self, bell_rho):
        assert st.trace_distance(bell_rho, bell_rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_mixture_dominant_projector(self, bell_rho):
        projector = st.DensityMatrix.from_pure(ms.bell_states()[0])
        assert st.trace_distance(bell_rho, projector) == pytest.approx(0.1, abs=1e-12)

    def test_classical_flip(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.3, 0.7]).astype(complex)
        assert st.trace_distance(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_accepts_non_physical_hermitian_argument(self, bell_rho):
        sigma = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        value = st.trace_distance(bell_rho, sigma)
        assert np.isfinite(value)

    def test_range_on_valid_states(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            assert 0.0 <= st.trace_distance(a, b) <= 1.0


class TestEigendecompose:
    def test_diagonal(self):
        rho = st.DensityMatrix(np.diag([0.9, 0.1]).astype(complex), 1)
        spectrum = st.eigendecompose(rho)
        assert np.allclose(spectrum.eigenvalues, [0.9, 0.1])
        assert abs(spectrum.eigenvectors[0].amplitudes[0]) == pytest.approx(1.0)

    def test_bell_mixture_spectrum(self, bell_rho):
        spectrum = st.eigendecompose(bell_rho)
        assert np.allclose(
            spectrum.eigenvalues, [0.9, 0.09, 0.009, 0.001], atol=1e-12
        )

    def test_reassembly_random(self):
        rng = np.random.default_rng(13)
        for n_qubits in (2, 3, 5):
            rho = st.DensityMatrix(
                random_density_matrix(2**n_qubits, rng), n_qubits
            )
            spectrum = st.eigendecompose(rho)
            assert np.abs(spectrum.reassemble() - rho.entries).max() <= 1e-9

    def test_phase_fix_largest_component_real_positive(self):
        rng = np.random.default_rng(14)
        rho = st.DensityMatrix(random_density_matrix(8, rng), 3)
        for vec in st.eigendecompose(rho).eigenvectors:
            pivot = vec.amplitudes[np.argmax(np.abs(vec.amplitudes))]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(15)
        rho = st.DensityMatrix(random_density_matrix(8, rng), 3)
        first = st.eigendecompose(rho)
        second = st.eigendecompose(rho)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        for a, b in zip(first.eigenvectors, second.eigenvectors):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_degenerate_block_ordered_deterministically(self):
        # Rotate a spectrum with an exactly repeated eigenvalue into a
        # generic frame and check the tie is broken reproducibly.
        rng = np.random.default_rng(16)
        gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary, _ = np.linalg.qr(gauss)
        values = np.array([0.4, 0.25, 0.25, 0.1])
        rho = st.DensityMatrix.from_eigensystem(values, unitary)
        first = st.eigendecompose(rho)
        second = st.eigendecompose(rho)
        assert np.allclose(first.eigenvalues, values, atol=1e-12)
        for a, b in zip(first.eigenvectors, second.eigenvectors):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.abs(first.reassemble() - rho.entries).max() <= 1e-9


class TestOptimalRankR:
    def test_bell_rank_one(self, bell_rho):
        truncated = st.optimal_rank_r(bell_rho, 1)
        assert st.fidelity(bell_rho, truncated) == pytest.approx(0.9, abs=1e-9)

    def test_full_rank_is_identity_operation(self, bell_rho):
        full = st.optimal_rank_r(bell_rho, 4)
        assert np.abs(full.entries - bell_rho.entries).max() <= 1e-10

    def test_w_mixture_rank_two_weight(self, w4_rho):
        # Requested spectrum 0.860 + 0.063 puts the rank-2 optimum at 0.923
        # exactly; three-decimal rounding in reported tables gives 0.922.
        truncated = st.optimal_rank_r(w4_rho, 2)
        assert st.fidelity(w4_rho, truncated) == pytest.approx(0.923, abs=1e-6)

    def test_rank_out_of_range(self, bell_rho):
        with pytest.raises(ValueError):
            st.optimal_rank_r(bell_rho, 0)
        with pytest.raises(ValueError):
            st.optimal_rank_r(bell_rho, 5)

    def test_output_valid_density_matrix_any_rank(self):
        rng = np.random.default_rng(16)
        rho = st.DensityMatrix(random_density_matrix(8, rng), 3)
        for r in range(1, 9):
            truncated = st.optimal_rank_r(rho, r)
            assert isinstance(truncated, st.DensityMatrix)


class TestStateFiles:
    def test_density_matrix_round_trip(self, tmp_path, bell_rho):
        path = tmp_path / "rho.json"
        st.save_density_matrix(path, bell_rho)
        loaded = st.load_density_matrix(path)
        assert np.array_equal(loaded.entries, bell_rho.entries)

    def test_state_vector_round_trip(self, tmp_path):
        psi = st.StateVector.normalized(np.array([1.0, 2.0j, -0.5, 0.25]))
        path = tmp_path / "psi.json"
        st.save_state_vector(path, psi)
        loaded = st.load_state_vector(path)
        assert np.array_equal(loaded.amplitudes, psi.amplitudes)

    def test_bytes_identical_rewrite(self, tmp_path, bell_rho):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        st.save_density_matrix(a, bell_rho)
        st.save_density_matrix(b, bell_rho)
        assert a.read_bytes() == b.read_bytes()
