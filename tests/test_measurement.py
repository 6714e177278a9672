import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eigentomo import measurement as ms
from eigentomo import states as st

from conftest import (
    MALFORMED_DATASETS,
    dense_probabilities,
    dense_rotation,
    random_density_matrix,
    random_pure,
)


class TestLocalRotation:
    def test_z_is_identity(self):
        assert np.array_equal(ms.local_rotation("z"), np.eye(2))

    def test_x_is_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(ms.local_rotation("x"), expected)

    def test_y_diagonalizes_pauli_y(self):
        pauli_y = np.array([[0, -1j], [1j, 0]])
        u = ms.local_rotation("y")
        assert np.allclose(u @ pauli_y @ u.conj().T, np.diag([1, -1]), atol=1e-12)

    def test_rows_are_axis_eigenstate_bras(self):
        paulis = {
            "x": np.array([[0, 1], [1, 0]], dtype=complex),
            "y": np.array([[0, -1j], [1j, 0]]),
            "z": np.diag([1, -1]).astype(complex),
        }
        for axis, pauli in paulis.items():
            u = ms.local_rotation(axis)
            for row, eigval in zip(u, (1, -1)):
                assert np.allclose(pauli @ row.conj(), eigval * row.conj())

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            ms.local_rotation("q")


class TestOutcomeConventions:
    def test_qubit_zero_is_most_significant(self):
        assert ms.outcome_strings(2) == ("++", "+-", "-+", "--")

    def test_round_trip(self):
        for i in range(8):
            outcome = ms.outcome_string(ms.spin_table(3)[i])
            assert ms.outcome_strings(3).index(outcome) == i

    def test_strings(self):
        assert ms.outcome_string((1, -1, 1)) == "+-+"
        assert ms.outcome_strings(3)[2] == "+-+"
        assert ms.outcome_strings(1) == ("+", "-")


class TestProjectorProbabilities:
    def test_ground_state_all_z(self):
        psi = st.StateVector.normalized([1, 0, 0, 0])
        probs = ms.density_probabilities(st.DensityMatrix.from_pure(psi), ["zz"])[0]
        ground = ms.outcome_strings(2).index("++")
        assert probs[ground] == pytest.approx(1.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        rho = st.DensityMatrix(np.eye(8) / 8, 3)
        probs = ms.density_probabilities(rho, ["zzz", "xyz", "yyy"])
        assert np.abs(probs - 0.125).max() <= 1e-12

    def test_bell_state_xx(self):
        bell = ms.bell_states()[0]
        probs = ms.density_probabilities(st.DensityMatrix.from_pure(bell), ["xx"])[0]
        expected = {"++": 0.5, "--": 0.5, "+-": 0.0, "-+": 0.0}
        for outcome, p in expected.items():
            index = ms.outcome_strings(2).index(outcome)
            assert probs[index] == pytest.approx(p, abs=1e-12)

    def test_matches_dense_unitary(self):
        rng = np.random.default_rng(20)
        for basis in ("xy", "yz", "xx"):
            rho = random_density_matrix(4, rng)
            expected = dense_probabilities(rho, basis)
            assert np.allclose(ms.density_probabilities(rho, [basis])[0], expected)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_density_probabilities_match_dense_unitaries(self, n):
        rng = np.random.default_rng(22 + n)
        dim = 2**n
        bases = ms.generate_basis_set(n, "full")
        psd = random_density_matrix(dim, rng)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        indefinite = 0.5 * (g + g.conj().T)
        assert np.linalg.eigvalsh(indefinite).min() < 0
        for mat in (psd, indefinite):
            expected = [dense_probabilities(mat, basis) for basis in bases]
            probs = ms.density_probabilities(mat, bases)
            assert probs.shape == (3**n, dim)
            assert np.allclose(probs, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_mixture_spanning_several_blocks(self, rank):
        # At n = 6 the 729 bases exceed the 256 rotated vectors of a chunk, so
        # each column is a one-member BasisRotation.forward call of its own.
        rng = np.random.default_rng(60 + rank)
        bases = ms.generate_basis_set(6, "full")
        vectors = np.linalg.qr(
            rng.normal(size=(64, rank)) + 1j * rng.normal(size=(64, rank))
        )[0]
        weights = rng.dirichlet(np.ones(rank))
        mat = (vectors * weights) @ vectors.conj().T
        expected = [dense_probabilities(mat, basis) for basis in bases]
        probs = ms.mixture_probabilities(weights, vectors, bases)
        assert probs.shape == (729, 64)
        assert np.allclose(probs, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, chunk", [(2, 28), (6, 1)], ids=["bell", "full-6"])
    def test_mixture_independent_of_chunk_size(self, n, chunk, monkeypatch):
        # Rank 3 on the Bell set (split 0, all three columns in one chunk) and
        # on the 729 n = 6 bases (one column a chunk).  The terms
        # w_k |U_b v_k|^2 are added in column order: the table is the
        # column-ordered weighted sum of the rank-1 tables, bit for bit, with
        # one column a chunk (_BLOCK_VECTORS = 1) or all in one (10^6).
        rng = np.random.default_rng(90 + n)
        bases = ms.generate_basis_set(n, "full")
        dim = 2**n
        vectors = np.linalg.qr(rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)))[0]
        weights = rng.dirichlet(np.ones(3))
        assert ms.BasisRotation(bases, n).chunk == chunk
        default = ms.mixture_probabilities(weights, vectors, bases)
        expected = np.zeros_like(default)
        for weight, column in zip(weights, vectors.T):
            expected += weight * ms.basis_probabilities(column, bases)
        assert np.array_equal(default, expected)
        for block in (1, 10**6):
            monkeypatch.setattr(ms, "_BLOCK_VECTORS", block)
            # The shared rotation fixed its chunk when it was built.
            ms.basis_rotation.cache_clear()
            assert ms.basis_rotation(tuple(bases), n).chunk == max(1, block // len(bases))
            probs = ms.mixture_probabilities(weights, vectors, bases)
            assert np.array_equal(probs, default), block

    def test_empty_basis_list(self):
        psi = random_pure(4, np.random.default_rng(5))
        assert ms.basis_probabilities(psi, []).shape == (0, 4)
        rotation = ms.BasisRotation([], 2)
        assert rotation.forward(psi[None]).shape == (1, 1, 0, 4)
        assert np.array_equal(rotation.adjoint(np.empty((1, 1, 0, 4))), np.zeros((1, 4)))

    def test_non_hermitian_rejected(self):
        mat = np.diag([1.0, 0.0]).astype(complex)
        mat[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            ms.density_probabilities(mat, ["z"])

    @pytest.mark.parametrize(
        "entries",
        [[[np.nan, 0], [0, 1]], [[1, np.inf], [np.inf, 0]], [[0.5, 0], [0, np.nan]]],
        ids=["nan-diagonal", "inf-off-diagonal", "nan-last"],
    )
    def test_non_finite_rejected(self, entries):
        with pytest.raises(ValueError, match="finite"):
            ms.density_probabilities(np.array(entries), ["z", "x"])

    @pytest.mark.parametrize(
        "mat", [np.eye(2, 4), np.eye(3) / 3, np.eye(1)], ids=["non-square", "dim-3", "dim-1"]
    )
    def test_malformed_shape_rejected(self, mat):
        with pytest.raises(ValueError):
            ms.density_probabilities(mat, ["z"])

    @pytest.mark.parametrize("kind", ["psd", "indefinite"])
    def test_density_probabilities_match_eigensystem_mixture(self, kind):
        # The eigensystem route density_probabilities took before the Pauli
        # table, on the 6-qubit compressed basis set.
        rng = np.random.default_rng(64)
        mat = random_density_matrix(64, rng)
        if kind == "indefinite":
            g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
            mat = 0.5 * (g + g.conj().T)
            assert np.linalg.eigvalsh(mat).min() < 0
        bases = ms.generate_basis_set(6, "compressed")
        expected = ms.mixture_probabilities(*np.linalg.eigh(mat), bases)
        probs = ms.density_probabilities(mat, bases)
        assert probs.shape == (len(bases), 64)
        assert np.abs(probs - expected).max() <= 1e-13

    def test_pure_case_is_rotate_states(self):
        """The one-state mixture is |U_b psi|^2, checked against dense unitaries."""
        rng = np.random.default_rng(23)
        bases = ms.generate_basis_set(4, "full")
        psi = random_pure(16, rng)
        expected = [np.abs(dense_rotation(basis) @ psi) ** 2 for basis in bases]
        probs = ms.mixture_probabilities([1.0], psi[:, None], bases)
        assert np.allclose(probs, expected, rtol=0, atol=1e-13)

    def test_batched_vector_probabilities_match_dense_unitaries(self):
        rng = np.random.default_rng(21)
        for n in range(1, 5):
            bases = ms.generate_basis_set(n, "full")
            for _ in range(3):
                psi = random_pure(2**n, rng)
                expected = [np.abs(dense_rotation(basis) @ psi) ** 2 for basis in bases]
                probs = ms.basis_probabilities(psi, bases)
                assert probs.shape == (3**n, 2**n)
                assert np.allclose(probs, expected, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(hst.integers(0, 2**32 - 1), hst.integers(1, 4))
    def test_product_states_factorize(self, seed, n_qubits):
        rng = np.random.default_rng(seed)
        singles = [random_pure(2, rng) for _ in range(n_qubits)]
        joint = singles[0]
        for v in singles[1:]:
            joint = np.kron(joint, v)
        basis = "".join(rng.choice(list("xyz")) for _ in range(n_qubits))
        joint_probs = ms.probabilities_vector(joint, basis)
        single_probs = [
            ms.probabilities_vector(v, axis) for v, axis in zip(singles, basis)
        ]
        for i in range(2**n_qubits):
            outcome = ms.spin_table(n_qubits)[i]
            product = np.prod(
                [sp[0 if s == 1 else 1] for sp, s in zip(single_probs, outcome)]
            )
            assert joint_probs[i] == pytest.approx(product, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(hst.integers(0, 2**32 - 1), hst.integers(1, 3))
    def test_per_basis_normalization(self, seed, n_qubits):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(2**n_qubits, rng)
        basis = "".join(rng.choice(list("xyz")) for _ in range(n_qubits))
        probs = ms.density_probabilities(rho, [basis])[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]).astype(complex),
}


class TestPauliExpectations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_kronecker_products(self, n):
        # Entry k of the table is the string at position k of
        # itertools.product("IXYZ", repeat=n): qubit 0 is the leading digit.
        rng = np.random.default_rng(70 + n)
        dim = 2**n
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for mat in (random_density_matrix(dim, rng), 0.5 * (g + g.conj().T)):
            expected = []
            for labels in itertools.product("IXYZ", repeat=n):
                string = np.ones((1, 1))
                for label in labels:
                    string = np.kron(string, PAULIS[label])
                expected.append(np.trace(mat @ string).real)
            table = ms.pauli_expectations(mat)
            assert table.shape == (4**n,) and table.dtype == np.float64
            assert np.abs(table - expected).max() <= 1e-12
            assert table[0] == pytest.approx(np.trace(mat).real, abs=1e-12)


def in_list_order(rotation, rotated) -> np.ndarray:
    """``BasisRotation.forward`` output as (m, n_bases, 2^n), bases in list order."""
    members, d_left, n_bases, d_right = rotated.shape
    out = np.empty((members, n_bases, d_left * d_right), dtype=complex)
    out[:, rotation.order] = rotated.transpose(0, 2, 1, 3).reshape(members, n_bases, -1)
    return out


def per_qubit_rotations(bases, v) -> np.ndarray:
    """(n_bases, 2^n) rows U_b v, each local 2 x 2 rotation applied to its own
    axis of v as a (2,)^n tensor: the ``dense_rotation`` products without
    forming a 2^n x 2^n matrix."""
    n = len(bases[0])
    out = np.broadcast_to(v.reshape((2,) * n), (len(bases),) + (2,) * n)
    for k in range(n):
        local = np.array([ms.local_rotation(basis[k]) for basis in bases])
        moved = np.einsum("bij,b...j->b...i", local, np.moveaxis(out, k + 1, -1))
        out = np.moveaxis(moved, -1, k + 1)
    return out.reshape(len(bases), -1)


def split_points(monkeypatch, n):
    """Each split point k = 0..n in turn, forced on new ``BasisRotation``s."""
    for k in range(n + 1):
        monkeypatch.setattr(ms, "_split_point", lambda n_qubits, bases, k=k: k)
        yield k


class TestRotateStates:
    """``BasisRotation`` against dense Kronecker-product unitaries.

    The first test keeps the name it had when it compared the per-qubit
    kernel with a strided einsum; it now checks the split kernel against
    ``dense_rotation`` at 1e-13.  Up to n = 6 both kernel tests run at every
    split point k = 0..n, not only at the one the cost model picks.
    """

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("mode", ["full", "compressed"])
    def test_bitwise_equal_to_strided_kernel(self, n, mode, monkeypatch):
        rng = np.random.default_rng(100 + n)
        bases = ms.generate_basis_set(n, mode, seed=n)
        dense = np.array([dense_rotation(basis) for basis in bases])
        psi = random_pure(2**n, rng)
        pair = np.stack([psi, random_pure(2**n, rng)])
        pulled = np.array([random_pure(2**n, rng) for _ in bases])
        pulled_pair = np.stack([pulled, [random_pure(2**n, rng) for _ in bases]])
        for k in split_points(monkeypatch, n):
            rotation = ms.BasisRotation(bases, n)
            assert rotation.shape == (2**k, 2 ** (n - k))
            for vectors in (psi[None], pair):
                got = in_list_order(rotation, rotation.forward(vectors))
                want = np.einsum("bij,mj->mbi", dense, vectors)
                assert np.allclose(got, want, rtol=0, atol=1e-13)
            for stack in (pulled[None], pulled_pair):
                got = rotation.adjoint(np.stack([rotation.arrange(x) for x in stack]))
                want = np.einsum("bji,mbj->mi", dense, stack)
                assert np.allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("mode", ["full", "compressed"])
    def test_unsorted_bases_and_adjoint_identity(self, n, mode, monkeypatch):
        # sum_b <y_b, U_b v> = <sum_b U_b^T y_b, v> (bilinear, no conjugation),
        # on a shuffled basis list, at every split point for n <= 6 (k = 0 is
        # an empty left half) and at the modelled one for n = 7, 8.  The
        # reference rotates qubit by qubit, as dense_rotation's products would.
        rng = np.random.default_rng(200 + n)
        bases = ms.generate_basis_set(n, mode, seed=n)
        bases = [bases[i] for i in rng.permutation(len(bases))]
        v = random_pure(2**n, rng)
        want = per_qubit_rotations(bases, v)
        y = rng.normal(size=want.shape) + 1j * rng.normal(size=want.shape)
        lhs = np.sum(y * want)
        for _ in split_points(monkeypatch, n) if n <= 6 else [None]:
            rotation = ms.BasisRotation(bases, n)
            got = in_list_order(rotation, rotation.forward(v[None]))[0]
            assert np.allclose(got, want, rtol=0, atol=1e-13)
            rhs = rotation.adjoint(rotation.arrange(y)[None])[0] @ v
            assert abs(lhs - rhs) <= 1e-12 * np.sqrt(len(bases))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_stack_members_bitwise_equal(self, n, monkeypatch):
        # Each member of an (m, 2^n) stack, and of an (m, ...) adjoint stack,
        # has the bits of its own one-member call, at every split point.
        rng = np.random.default_rng(150 + n)
        bases = ms.generate_basis_set(n, "full")
        vectors = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
        pulled = rng.normal(size=(3, len(bases), 2**n)) * (1 + 1j)
        for _ in split_points(monkeypatch, n):
            rotation = ms.BasisRotation(bases, n)
            layouts = np.stack([rotation.arrange(x) for x in pulled])
            for size in (2, 3):
                stacked = rotation.forward(vectors[:size])
                summed = rotation.adjoint(layouts[:size])
                assert summed.shape == (size, 2**n)
                for member in range(size):
                    single = rotation.forward(vectors[member : member + 1])
                    assert np.array_equal(stacked[member], single[0])
                    single = rotation.adjoint(layouts[member : member + 1])
                    assert np.array_equal(summed[member], single[0])

    def test_forward_into_given_buffer(self):
        rng = np.random.default_rng(8)
        rotation = ms.BasisRotation(ms.generate_basis_set(4, "compressed", 7), 4)
        vectors = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        want = rotation.forward(vectors)
        buffer = np.empty_like(want)
        assert rotation.forward(vectors, out=buffer) is buffer
        assert np.array_equal(buffer, want)

    def test_inputs_untouched(self):
        rng = np.random.default_rng(7)
        rotation = ms.BasisRotation(ms.generate_basis_set(3), 3)
        layout = (2, rotation.shape[0], 27, rotation.shape[1])
        vectors = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        pulled = rng.normal(size=layout) + 1j * rng.normal(size=layout)
        before = vectors.copy(), pulled.copy()
        rotation.forward(vectors)
        rotation.adjoint(pulled)
        assert np.array_equal(vectors, before[0])
        assert np.array_equal(pulled, before[1])


class TestSharedRotation:
    """``basis_rotation`` builds one read-only ``BasisRotation`` per basis list
    and hands it to every caller."""

    @pytest.mark.parametrize(
        "n, bases",
        [(2, ms.generate_basis_set(2)), (8, ms.generate_basis_set(8, "compressed", 7))],
        ids=["bell-split-0", "w8-split-4"],
    )
    def test_factor_and_index_arrays_read_only(self, n, bases):
        rotation = ms.basis_rotation(tuple(bases), n)
        arrays = [rotation.order, rotation._left, rotation._left_t, *rotation._right]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]

    def test_memo_returns_one_object_per_basis_list(self):
        bell, other = ms.generate_basis_set(2), ["xx", "zz"]
        shared = ms.basis_rotation(tuple(bell), 2)
        assert ms.basis_rotation(tuple(bell), 2) is shared
        assert ms.basis_rotation(tuple(list(bell)), 2) is shared
        replaced = ms.basis_rotation(tuple(other), 2)
        assert replaced is not shared
        assert len(replaced.order) == 2
        # One entry: the first list is built anew after another one.
        rebuilt = ms.basis_rotation(tuple(bell), 2)
        assert rebuilt is not shared and rebuilt is not replaced


class TestSplitPoint:
    """The cost model picks the split of ``BasisRotation`` from (n, bases) alone."""

    @pytest.mark.parametrize(
        "n, bases, k",
        [
            (2, ms.generate_basis_set(2), 0),
            (8, ms.generate_basis_set(8, "compressed", 7), 4),
        ],
        ids=["bell-full-2", "w8-compressed-8"],
    )
    def test_pinned_choice(self, n, bases, k):
        assert ms._split_point(n, bases) == k
        assert ms.BasisRotation(bases, n).shape == (2**k, 2 ** (n - k))

    @pytest.mark.parametrize(
        "n, mode", [(2, "full"), (4, "compressed"), (8, "compressed")]
    )
    def test_same_for_rebuilds_and_shuffles(self, n, mode):
        bases = ms.generate_basis_set(n, mode, 7)
        shapes = {ms.BasisRotation(bases, n).shape for _ in range(2)}
        rng = np.random.default_rng(n)
        for _ in range(3):
            shuffled = [bases[i] for i in rng.permutation(len(bases))]
            shapes.add(ms.BasisRotation(shuffled, n).shape)
        assert len(shapes) == 1


class TestGenerateBasisSet:
    def test_full_two_qubits(self):
        bases = ms.generate_basis_set(2, "full")
        assert len(bases) == 9
        assert sorted(bases) == bases
        assert set(bases) == {
            "xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz"
        }

    def test_compressed_counts(self):
        assert len(ms.generate_basis_set(4, "compressed", 3)) == 61
        assert len(ms.generate_basis_set(1, "compressed", 3)) == 3

    def test_compressed_contains_all_z_and_no_duplicates(self):
        for seed in range(5):
            bases = ms.generate_basis_set(3, "compressed", seed)
            assert "zzz" in bases
            assert len(set(bases)) == len(bases)

    def test_compressed_deterministic(self):
        assert ms.generate_basis_set(4, "compressed", 11) == ms.generate_basis_set(
            4, "compressed", 11
        )
        assert ms.generate_basis_set(4, "compressed", 11) != ms.generate_basis_set(
            4, "compressed", 12
        )


class TestExactDataset:
    def test_single_qubit(self):
        rho = st.DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
        data = ms.exact_dataset(rho, ["z"])
        assert data.n_records == 2
        assert data.probabilities[0, 0] == pytest.approx(1.0)
        assert data.probabilities[0, 1] == pytest.approx(0.0)

    def test_bell_mixture_full(self, bell_rho, bell_dataset):
        assert bell_dataset.n_records == 36
        assert np.allclose(bell_dataset.probabilities.sum(axis=1), 1.0, atol=1e-12)

    def test_w_mixture_compressed_count(self, w4_rho):
        data = ms.exact_dataset(w4_rho, ms.generate_basis_set(4, "compressed", 7))
        assert data.n_records == 61 * 16

    def test_peak_memory_independent_of_rotated_matrices(self):
        # Keeping every basis's rotated 64 x 64 complex matrix alive until the
        # end would take 729 * 64 KiB, about 47 MB.
        rho = random_density_matrix(64, np.random.default_rng(31))
        bases = ms.generate_basis_set(6, "full")
        tracemalloc.start()
        try:
            data = ms.exact_dataset(rho, bases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.probabilities.shape == (729, 64)
        assert peak < 8e6


class TestSampleDataset:
    def test_deterministic(self, bell_rho):
        bases = ms.generate_basis_set(2, "full")
        a = ms.sample_dataset(bell_rho, bases, 500, seed=4)
        b = ms.sample_dataset(bell_rho, bases, 500, seed=4)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(
            a.counts, ms.sample_dataset(bell_rho, bases, 500, seed=5).counts
        )

    def test_pure_state_certain_outcome(self):
        rho = st.DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
        data = ms.sample_dataset(rho, ["z"], 100, seed=1)
        assert data.probabilities[0, 0] == pytest.approx(1.0)
        assert data.counts[0, 0] == 100

    def test_frequencies_concentrate(self):
        rng = np.random.default_rng(30)
        shots = 4096
        bound = 3.0 / np.sqrt(shots)
        failures = 0
        trials = 100
        for trial in range(trials):
            rho = random_density_matrix(4, rng)
            bases = ["xy", "zz", "yx"]
            exact = ms.exact_dataset(rho, bases)
            sampled = ms.sample_dataset(rho, bases, shots, seed=1000 + trial)
            tv = 0.5 * np.abs(
                sampled.probabilities - exact.probabilities
            ).sum(axis=1)
            failures += int((tv > bound).any())
        assert failures <= 5

    def test_shots_must_be_positive(self, bell_rho):
        with pytest.raises(ValueError):
            ms.sample_dataset(bell_rho, ["zz"], 0, seed=1)


class TestDatasetContainer:
    def test_rejects_unnormalized_basis(self):
        probs = np.array([[0.5, 0.4]])
        with pytest.raises(ValueError):
            ms.MeasurementDataset(1, ("z",), probs, None, "exact")

    def test_rejects_negative_probability(self):
        probs = np.array([[1.0 + 1e-6, -1e-6]])
        with pytest.raises(ValueError):
            ms.MeasurementDataset(1, ("z",), probs, None, "exact")

    def test_rejects_non_finite_probability(self):
        for bad in (np.nan, np.inf):
            probs = np.array([[0.5, bad]])
            with pytest.raises(ValueError, match="finite"):
                ms.MeasurementDataset(1, ("z",), probs, None, "exact")

    def test_clamps_tiny_negative(self):
        probs = np.array([[1.0, -1e-13]])
        data = ms.MeasurementDataset(1, ("z",), probs, None, "exact")
        assert data.probabilities[0, 1] == 0.0

    def test_records_sorted_by_basis_then_outcome(self, bell_dataset):
        # "+" sorts before "-", so outcome strings sort in index order.
        keys = [
            (basis, outcome)
            for basis in bell_dataset.bases
            for outcome in ms.outcome_strings(bell_dataset.n_qubits)
        ]
        assert len(keys) == bell_dataset.n_records
        assert keys == sorted(keys)

    def test_rejects_counts_disagreeing_with_probabilities(self):
        # Basis x agrees; each message names z, the first basis at fault.
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        cases = (
            ([[3, 3], [999, 1]], "basis 'z': record probabilities disagree with the shot"),
            ([[3, 3], [0, 0]], "sampled basis 'z' has no shots"),
        )
        for counts, match in cases:
            with pytest.raises(ValueError, match=match):
                ms.MeasurementDataset(1, ("x", "z"), probs, counts, "sampled", 1)
        ms.MeasurementDataset(1, ("x", "z"), probs, [[3, 3], [2, 2]], "sampled", 1)

    def test_rejects_mode_contradicting_the_shots(self):
        probs = [[0.5, 0.5]]
        with pytest.raises(ValueError, match="mode 'exact' contradicts the shots"):
            ms.MeasurementDataset(1, ("z",), probs, [[5, 5]], "exact")
        with pytest.raises(ValueError, match="mode 'sampled' contradicts the shots"):
            ms.MeasurementDataset(1, ("z",), probs, None, "sampled", 1)

    def test_jsonl_round_trip(self, tmp_path, bell_rho):
        data = ms.sample_dataset(bell_rho, ["xx", "zy"], 200, seed=8)
        path = tmp_path / "data.jsonl"
        data.save_jsonl(path)
        loaded = ms.MeasurementDataset.load_jsonl(path)
        assert loaded.bases == data.bases
        assert np.array_equal(loaded.probabilities, data.probabilities)
        assert np.array_equal(loaded.counts, data.counts)
        assert loaded.mode == "sampled" and loaded.seed == 8

    def test_jsonl_bytes_stable(self, tmp_path, bell_dataset):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        bell_dataset.save_jsonl(a)
        bell_dataset.save_jsonl(b)
        assert a.read_bytes() == b.read_bytes()

    def test_incomplete_outcome_grid_rejected(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"n_qubits": 1, "mode": "exact", "seed": null}\n'
            '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n'
        )
        with pytest.raises(ValueError, match="outcomes"):
            ms.MeasurementDataset.load_jsonl(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED_DATASETS))
    def test_malformed_records_rejected(self, tmp_path, name):
        text, match = MALFORMED_DATASETS[name]
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            ms.MeasurementDataset.load_jsonl(path)

    def test_missing_outcome_field_rejected(self, tmp_path):
        path = tmp_path / "no_outcome.jsonl"
        path.write_text(
            '{"n_qubits": 1, "mode": "exact", "seed": null}\n'
            '{"basis": "z", "p": 1.0, "shots": null}\n'
        )
        with pytest.raises(ValueError, match="invalid outcome"):
            ms.MeasurementDataset.load_jsonl(path)

    def test_writer_matches_per_record_encoding(self, tmp_path, bell_rho):
        for data in (
            ms.exact_dataset(bell_rho, ["xy", "zz"]),
            ms.sample_dataset(bell_rho, ["xx", "yz"], 50, seed=2),
        ):
            header = {"n_qubits": data.n_qubits, "mode": data.mode, "seed": data.seed}
            counts = (
                data.counts.tolist()
                if data.counts is not None
                else [[None] * data.dim] * len(data.bases)
            )
            lines = [json.dumps(header)] + [
                json.dumps({"basis": basis, "outcome": outcome, "p": p, "shots": k})
                for basis, probs, shots in zip(
                    data.bases, data.probabilities.tolist(), counts
                )
                for outcome, p, k in zip(ms.outcome_strings(data.n_qubits), probs, shots)
            ]
            path = tmp_path / "data.jsonl"
            data.save_jsonl(path)
            assert path.read_text() == "\n".join(lines) + "\n"

    @settings(max_examples=30, deadline=None)
    @given(
        hst.integers(1, 3).flatmap(
            lambda n: hst.tuples(
                hst.just(n),
                hst.sets(
                    hst.sampled_from(ms.generate_basis_set(n, "full")), min_size=1
                ),
            )
        ),
        hst.integers(0, 2**32 - 1),
        hst.sampled_from([0, 1, 40]),
    )
    def test_jsonl_round_trip_property(self, n_and_bases, seed, shots):
        n, bases = n_and_bases
        rho = random_density_matrix(2**n, np.random.default_rng(seed))
        if shots:
            data = ms.sample_dataset(rho, bases, shots, seed=seed)
        else:
            data = ms.exact_dataset(rho, bases)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            data.save_jsonl(a)
            data.save_jsonl(b)
            assert a.read_bytes() == b.read_bytes()
            loaded = ms.MeasurementDataset.load_jsonl(a)
        assert loaded.n_qubits == n and loaded.bases == data.bases
        assert np.array_equal(loaded.probabilities, data.probabilities)
        if shots:
            assert np.array_equal(loaded.counts, data.counts)
        else:
            assert loaded.counts is None
        assert loaded.mode == data.mode and loaded.seed == data.seed

    def test_header_only_file_loads_empty(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text('{"n_qubits": 2, "mode": "exact", "seed": null}\n')
        data = ms.MeasurementDataset.load_jsonl(path)
        assert data.bases == () and data.counts is None
        assert data.probabilities.shape == (0, 4) and data.n_records == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            ms.MeasurementDataset.load_jsonl(path)


class TestRecordValues:
    """``_record_values`` gives the values, and the first error, of one
    ``json.loads`` per non-blank line, whether a block goes through the
    one-array parse or line by line."""

    GOOD = [
        '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n',
        '{"a": "}\\n,{"}\n',
        '{}\n',
        '  {"basis": "z", "outcome": "-", "p": 0.5}\n',
        '{"x": [1, 2], "y": {"z": "}"}}\n',
        "[1, 2]\n",
        "7\n",
        "\n",
        "  \t\n",
    ]
    BAD = [
        '{"a": 1\n',
        '"b": 2}\n',
        '{"a": 1}, {"b": 2}\n',
        '{"a": 1}}\n',
        '{"a" 1}\n',
        '{"a": "x\n',
        '2]}\n',
        '{"a": [1\n',
    ]

    @staticmethod
    def parse(lines):
        try:
            return list(ms._record_values(iter(lines)))
        except ValueError as err:
            return str(err)

    @staticmethod
    def line_by_line(lines):
        try:
            return [json.loads(line) for line in lines if line.strip()]
        except ValueError as err:
            return str(err)

    def test_matches_line_by_line_parse(self):
        rng = np.random.default_rng(22)
        for trial in range(400):
            pool = self.GOOD + (self.BAD if trial % 2 else [])
            lines = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 9))]
            if trial % 3 == 0 and lines[-1] != "\n":
                lines[-1] = lines[-1].rstrip("\n")  # a last line may lack it
            assert self.parse(lines) == self.line_by_line(lines), lines

    @pytest.mark.parametrize(
        "lines",
        [
            # An object run on over a join, made up for by two on one line.
            ['{"a": 1\n', '"b": 2}\n', '{"c": 1}, {"d": 2}\n'],
            ['{"x": [{"a": 1}\n', '{"b": 2}]}\n'],
            # A second value before the first line's object or after the last.
            ['5, {"a": 1}\n', '{"b": 2}\n'],
            ['{"b": 2}\n', '{"a": 1}, 5'],
            ['{"b": 2}\n', '{"a": 1}, 5\n'],
        ],
    )
    def test_values_run_over_lines_rejected(self, lines):
        assert isinstance(self.line_by_line(lines), str)
        assert self.parse(lines) == self.line_by_line(lines)

    def test_blocks_of_save_jsonl_lines(self, tmp_path, bell_rho):
        # More than one block of 1024 lines, the last one short, with a bad
        # line in the second block: the error is the line's own.
        data = ms.exact_dataset(bell_rho, ms.generate_basis_set(2, "full"))
        path = tmp_path / "data.jsonl"
        data.save_jsonl(path)
        records = path.read_text().splitlines(keepends=True)[1:] * 60
        assert self.parse(records) == self.line_by_line(records)
        records[1500] = records[1500].replace('"p":', '"p"')
        assert "Expecting ':' delimiter" in self.parse(records)
        assert self.parse(records) == self.line_by_line(records)


class TestWMixture:
    def test_requested_spectrum_reproduced(self, w4_rho):
        spectrum = st.eigendecompose(w4_rho)
        assert np.allclose(
            spectrum.eigenvalues[:3], [0.860, 0.063, 0.037], atol=1e-10
        )
        assert np.allclose(spectrum.eigenvalues[3:], 0.04 / 13, atol=1e-10)

    def test_zero_perturbation_pure_w(self):
        for n in (1, 3):
            rho = ms.make_w_mixture(n, [1.0], seed=0, perturbation=0.0)
            w = ms.w_state(n)
            assert st.pure_fidelity(rho, w) == pytest.approx(1.0, abs=1e-12)

    def test_five_qubit_leading_weight(self):
        rho = ms.make_w_mixture(5, [0.824, 0.073, 0.042], seed=7)
        spectrum = st.eigendecompose(rho)
        # 0.824 + 0.073 = 0.897; reported tables round the same row to 0.896.
        assert spectrum.leading_weight(2) == pytest.approx(0.897, abs=1e-9)

    def test_dominant_close_to_w(self, w4_rho):
        spectrum = st.eigendecompose(w4_rho)
        overlap = abs(spectrum.eigenvector(0).overlap(ms.w_state(4))) ** 2
        assert 0.9 < overlap < 1.0

    def test_invalid_spectra(self):
        with pytest.raises(ValueError):
            ms.make_w_mixture(2, [0.5, 0.7], seed=0)
        with pytest.raises(ValueError):
            ms.make_w_mixture(2, [-0.1], seed=0)
        with pytest.raises(ValueError):
            ms.make_w_mixture(2, [0.3, 0.5], seed=0)

    def test_w_state_amplitudes(self):
        w = ms.w_state(3)
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / np.sqrt(3)
        assert np.allclose(w.amplitudes, expected)
