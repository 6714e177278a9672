import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from eigentomo import measurement as ms
from eigentomo import states as st

from conftest import MALFORMED_STATE_FILES, random_density_matrix, random_pure


def naive_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Independent implementation via Schur-based matrix square roots."""
    root = scipy.linalg.sqrtm(b)
    return float(np.real(np.trace(scipy.linalg.sqrtm(root @ a @ root)) ** 2))


def reference_eigendecompose(rho: st.DensityMatrix):
    """Descending eigenvalues and eigenvector columns, one vector at a time:
    each column's phase fixed by the scalar ``abs`` of its largest-modulus
    component and each vector rescaled by ``StateVector.normalized``; tied
    eigenvalues keep the order ``eigh`` returns."""
    vals, vecs = np.linalg.eigh(rho.entries)
    columns = []
    for column in vecs.T[::-1]:
        pivot = column[int(np.argmax(np.abs(column)))]
        phased = column * (pivot.conj() / abs(pivot))
        columns.append(st.StateVector.normalized(phased).amplitudes)
    return vals[::-1], np.column_stack(columns)


class TestStateVector:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            st.StateVector(np.array([1.0, 1.0]), 1)

    def test_requires_power_of_two_length(self):
        with pytest.raises(ValueError):
            st.StateVector(np.array([1.0, 0.0, 0.0]), 1)

    def test_rejects_non_finite_amplitudes(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                st.StateVector(np.array([bad, 0.0]), 1)

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

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="entries must be finite"):
                st.DensityMatrix(np.array([[bad, 0.0], [0.0, 1.0]]), 1)

    def test_maximally_mixed(self):
        rho = st.DensityMatrix(np.eye(4) / 4, 2)
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
            for _ in range(5):
                a = random_density_matrix(dim, rng)
                b = random_density_matrix(dim, rng)
                value = st.fidelity(a, b)
                assert isinstance(value, float)
                assert value == pytest.approx(naive_fidelity(a, b), abs=1e-9)

    def test_dimension_mismatch(self, bell_rho):
        with pytest.raises(ValueError):
            st.fidelity(bell_rho, st.DensityMatrix(np.eye(2) / 2, 1))

    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        ok = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            st.fidelity(bad, ok)
        with pytest.raises(ValueError):
            st.fidelity(ok, bad)

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
        rho = st.DensityMatrix(np.eye(4) / 4, 2)
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
                general = [st.fidelity(rho, projector) for projector in projectors]
                np.testing.assert_allclose(general, stacked, rtol=0, atol=1e-9)

    def test_dimension_mismatch(self, bell_rho):
        with pytest.raises(ValueError):
            st.pure_fidelity(bell_rho, st.StateVector.normalized([1.0, 0.0]))
        with pytest.raises(ValueError):
            st.pure_fidelity(bell_rho, np.ones((3, 2)) / np.sqrt(2))


def reference_states(dim: int, rng: np.random.Generator) -> dict:
    """Density matrices of every spectrum shape the small-space scorers must
    handle: pure, rank 2 (dim >= 2), maximally mixed (fully degenerate),
    random full rank, and the Bell mixture at dim 4."""
    v = random_pure(dim, rng)
    states = {
        "pure": np.outer(v, v.conj()),
        "mixed": np.eye(dim, dtype=complex) / dim,
        "random": random_density_matrix(dim, rng),
    }
    if dim >= 2:
        pair, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
        states["rank2"] = (pair * [0.7, 0.3]) @ pair.conj().T
    if dim == 4:
        states["bell"] = ms.bell_mixture().entries
    return states


def explicit_trace_distances(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return st.half_trace_norm(rho - np.einsum("ku,kv->kuv", psi, psi.conj()))


def assembled_fidelities(rho: np.ndarray, frames: np.ndarray, weights: np.ndarray):
    return np.array([
        st.fidelity(rho, (frame * weight) @ frame.conj().T)
        for frame, weight in zip(frames, weights)
    ])


def random_frames(dim: int, r: int, count: int, rng: np.random.Generator):
    g = rng.normal(size=(count, dim, r)) + 1j * rng.normal(size=(count, dim, r))
    frames, _ = np.linalg.qr(g)
    weights = rng.exponential(size=(count, r))
    return frames, weights / weights.sum(axis=1, keepdims=True)


DIMS = (1, 2, 3, 4, 8, 16, 32)


class TestPureTraceDistance:
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_explicit_difference(self, dim):
        rng = np.random.default_rng(40 + dim)
        for name, rho in reference_states(dim, rng).items():
            eigvecs = np.linalg.eigh(rho)[1].T
            # Eigenvector challengers put exact zeros into the weights |V^dag psi|^2.
            psi = np.concatenate([
                np.array([random_pure(dim, rng) for _ in range(50)]), eigvecs,
            ])
            got = st.pure_trace_distance(rho, psi)
            assert got.shape == (psi.shape[0],)
            np.testing.assert_allclose(
                got, explicit_trace_distances(rho, psi), rtol=0, atol=1e-12, err_msg=name
            )

    def test_own_eigenvectors_of_degenerate_states(self):
        # Exact one-hot weights on a fully degenerate or rank-deficient spectrum.
        for dim in (2, 4, 8):
            basis = np.eye(dim, dtype=complex)
            mixed = basis / dim
            assert st.pure_trace_distance(mixed, basis) == pytest.approx(
                np.full(dim, 1 - 1 / dim), abs=1e-15
            )
            pure = np.diag(np.r_[1.0, np.zeros(dim - 1)]).astype(complex)
            np.testing.assert_allclose(
                st.pure_trace_distance(pure, basis), np.r_[0.0, np.ones(dim - 1)],
                rtol=0, atol=1e-15,
            )

    def test_bell_mixture_dominant_state(self, bell_rho):
        psi = ms.bell_states()[0].amplitudes[None]
        assert st.pure_trace_distance(bell_rho, psi)[0] == pytest.approx(0.1, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(hst.integers(0, 2**32 - 1), hst.sampled_from(DIMS))
    def test_agrees_with_eigensolver(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(dim, rng)
        psi = np.array([random_pure(dim, rng) for _ in range(8)])
        np.testing.assert_allclose(
            st.pure_trace_distance(rho, psi), explicit_trace_distances(rho, psi),
            rtol=0, atol=1e-12,
        )

    def test_invalid_inputs_rejected(self, bell_rho):
        psi = ms.bell_states()[1].amplitudes[None]
        with pytest.raises(ValueError, match="trace"):
            st.pure_trace_distance(2 * bell_rho.entries, psi)
        with pytest.raises(ValueError, match="positive semi-definite"):
            st.pure_trace_distance(np.diag([1.5, -0.5]).astype(complex), np.eye(2))
        with pytest.raises(ValueError, match="unit norm"):
            st.pure_trace_distance(bell_rho, np.array([psi[0], 1.01 * psi[0]]))
        with pytest.raises(ValueError):
            st.pure_trace_distance(bell_rho, psi[0])
        with pytest.raises(ValueError):
            st.pure_trace_distance(bell_rho, np.eye(2))


class TestFrameFidelity:
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_assembled_stack(self, dim):
        rng = np.random.default_rng(60 + dim)
        for name, rho in reference_states(dim, rng).items():
            eigvecs = np.linalg.eigh(rho)[1]
            for r in sorted({1, min(2, dim), dim}):
                frames, weights = random_frames(dim, r, 20, rng)
                # rho's own eigenvectors as a frame, once with a zero weight.
                own = np.broadcast_to(eigvecs[:, :r], (2, dim, r))
                own_weights = np.full((2, r), 1.0 / r)
                if r > 1:
                    own_weights[1] = np.r_[0.0, np.full(r - 1, 1.0 / (r - 1))]
                frames = np.concatenate([frames, own])
                weights = np.concatenate([weights, own_weights])
                got = st.frame_fidelity(rho, frames, weights)
                assert got.shape == (22,)
                np.testing.assert_allclose(
                    got, assembled_fidelities(rho, frames, weights), rtol=0, atol=1e-12,
                    err_msg=f"{name} r={r}",
                )

    def test_bell_mixture_truncation_attains_kappa(self, bell_rho):
        vecs = st.eigendecompose(bell_rho).vectors[:, :2]
        value = st.frame_fidelity(bell_rho, vecs[None], np.array([[0.9, 0.09]]) / 0.99)
        assert value[0] == pytest.approx(0.99, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(hst.integers(0, 2**32 - 1), hst.sampled_from(DIMS), hst.integers(1, 4))
    def test_agrees_with_eigensolver(self, seed, dim, r):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(dim, rng)
        frames, weights = random_frames(dim, min(r, dim), 8, rng)
        np.testing.assert_allclose(
            st.frame_fidelity(rho, frames, weights),
            assembled_fidelities(rho, frames, weights), rtol=0, atol=1e-12,
        )

    def test_invalid_inputs_rejected(self, bell_rho):
        rng = np.random.default_rng(61)
        frames, weights = random_frames(4, 2, 3, rng)
        with pytest.raises(ValueError, match="non-negative"):
            st.frame_fidelity(bell_rho, frames, weights * [1.0, -1.0])
        with pytest.raises(ValueError, match="positive semi-definite"):
            bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
            st.frame_fidelity(bad, frames, weights)
        with pytest.raises(ValueError):
            st.frame_fidelity(bell_rho, frames, weights[:2])
        with pytest.raises(ValueError):
            st.frame_fidelity(bell_rho, frames[:, :2], weights)


class TestEigendecompose:
    def test_diagonal(self):
        rho = st.DensityMatrix(np.diag([0.9, 0.1]).astype(complex), 1)
        spectrum = st.eigendecompose(rho)
        assert np.allclose(spectrum.eigenvalues, [0.9, 0.1])
        assert abs(spectrum.vectors[0, 0]) == pytest.approx(1.0)

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
            rebuilt = st.DensityMatrix.from_eigensystem(
                spectrum.eigenvalues, spectrum.vectors
            )
            assert np.abs(rebuilt.entries - rho.entries).max() <= 1e-9

    def test_phase_fix_largest_component_real_positive(self):
        rng = np.random.default_rng(14)
        rho = st.DensityMatrix(random_density_matrix(8, rng), 3)
        for vec in st.eigendecompose(rho).vectors.T:
            pivot = vec[np.argmax(np.abs(vec))]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(15)
        rho = st.DensityMatrix(random_density_matrix(8, rng), 3)
        first = st.eigendecompose(rho)
        second = st.eigendecompose(rho)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.vectors, second.vectors)

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
        assert np.array_equal(first.vectors, second.vectors)
        rebuilt = st.DensityMatrix.from_eigensystem(
            first.eigenvalues, first.vectors
        )
        assert np.abs(rebuilt.entries - rho.entries).max() <= 1e-9

    def test_matches_per_vector_reference_bitwise(self, bell_rho, w4_rho):
        rng = np.random.default_rng(18)
        gauss = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        unitary, _ = np.linalg.qr(gauss)
        degenerate = st.DensityMatrix.from_eigensystem(
            [0.3, 0.2, 0.2, 0.2, 0.05, 0.05, 0.0, 0.0], unitary
        )
        w8 = ms.make_w_mixture(8, [0.80, 0.07, 0.04], seed=7)
        states = [bell_rho, w4_rho, w8, degenerate] + [
            st.DensityMatrix(random_density_matrix(2**n, rng), n)
            for n in rng.integers(1, 6, size=20).tolist()
        ]
        # The W8 spectrum ends in one run of 253 tied eigenvalues.
        tail = np.diff(st.eigendecompose(w8).eigenvalues[3:])
        assert tail.size == 252 and np.all(tail > -st.DEGENERACY_GAP)
        for rho in states:
            spectrum = st.eigendecompose(rho)
            values, vectors = reference_eigendecompose(rho)
            assert np.array_equal(spectrum.eigenvalues, values)
            assert np.array_equal(spectrum.vectors, vectors)
            for k in range(spectrum.dim):
                assert np.array_equal(
                    spectrum.eigenvector(k).amplitudes, spectrum.vectors[:, k]
                )

    def test_spectrum_is_read_only(self, bell_rho):
        spectrum = st.eigendecompose(bell_rho)
        with pytest.raises(ValueError):
            spectrum.vectors[0, 0] = 1.0

    def test_spectrum_checks_its_matrix(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="disagree"):
            st.Spectrum([0.5, 0.3, 0.2], eye)
        with pytest.raises(ValueError, match="descending"):
            st.Spectrum([0.3, 0.7], eye)
        with pytest.raises(ValueError, match="orthonormal"):
            st.Spectrum([0.7, 0.3], [[1.0, 1.0], [0.0, 1.0]])

    def test_spectrum_rejects_non_finite_entries(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="must be finite"):
            st.Spectrum(np.array([np.nan, 1.0]), eye)
        with pytest.raises(ValueError, match="must be finite"):
            st.Spectrum([0.7, 0.3], [[np.nan, 0.0], [0.0, 1.0]])


class TestRequireOrthonormal:
    def test_accepts_orthonormal_columns(self):
        rng = np.random.default_rng(19)
        gauss = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        st.require_orthonormal(np.linalg.qr(gauss)[0], "frame")
        st.require_orthonormal(np.zeros((8, 0), dtype=complex), "no states")

    def test_rejects_overlap_and_norm_beyond_gram_atol(self):
        tilted = np.eye(4)[:, :2].astype(complex)
        tilted[1, 0] = 2e-10
        for vectors in (tilted, (1 + 2e-10) * np.eye(4)[:, :2]):
            with pytest.raises(ValueError, match="frame are not orthonormal"):
                st.require_orthonormal(vectors, "frame")

    def test_gram_deviation_is_the_largest_entry(self):
        tilted = np.eye(4)[:, :2].astype(complex)
        tilted[1, 0] = 3e-7j
        assert st.gram_deviation(tilted) == pytest.approx(3e-7, rel=1e-9)
        assert st.gram_deviation(np.zeros((8, 0), dtype=complex)) == 0.0
        with pytest.raises(ValueError, match="orthonormal"):
            st.require_orthonormal(np.full((2, 1), np.nan), "frame")


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

    @pytest.mark.parametrize("name", sorted(MALFORMED_STATE_FILES))
    def test_malformed_state_files_rejected(self, tmp_path, name):
        text, match = MALFORMED_STATE_FILES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for load in (st.load_state_vector, st.load_density_matrix):
            with pytest.raises(ValueError, match=match):
                load(path)

    def test_bytes_identical_rewrite(self, tmp_path, bell_rho):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        st.save_density_matrix(a, bell_rho)
        st.save_density_matrix(b, bell_rho)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_density_matrix_file_is_the_list_document(self, tmp_path, n):
        # Written row by row, the file is still json.dumps of the nested-list
        # document: negative zeros, a subnormal and 17-digit entries included.
        dim = 2**n
        p = np.random.default_rng(n).random(dim) + 1.0
        mat = np.full((dim, dim), complex(-0.0, -0.0))
        mat[np.diag_indices(dim)] = p / p.sum()
        mat[0, -1] = complex(5e-324, 1.2345678901234567e-3)
        mat[-1, 0] = mat[0, -1].conjugate()
        rho = st.DensityMatrix(mat, n)
        path = tmp_path / "rho.json"
        st.save_density_matrix(path, rho)
        want = json.dumps(
            {
                "n_qubits": n,
                "re": rho.entries.real.tolist(),
                "im": rho.entries.imag.tolist(),
            }
        )
        assert path.read_text() == want + "\n"
        for text in ("-0.0", "5e-324", "0.0012345678901234567"):
            assert text in want

    def test_density_matrix_written_within_a_fraction_of_its_size(self, tmp_path):
        # A list of all 2 * 64 * 64 floats, or the file's text, would take
        # several times the file's size.
        rho = st.DensityMatrix(random_density_matrix(64, np.random.default_rng(5)), 6)
        path = tmp_path / "rho.json"
        tracemalloc.start()
        try:
            st.save_density_matrix(path, rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
