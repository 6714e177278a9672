"""Dense complex linear algebra for small multi-qubit systems.

State vectors, density matrices, spectral decompositions, and the two
standard closeness measures (fidelity and trace distance).  Everything is
plain numpy on dimensions up to a few thousand; no sparsity and no tensor
networks.  Qubit 0 is always the most significant bit of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio

NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGVAL_FLOOR = -1e-10
#: fidelity() tolerates numerically non-PSD inputs down to this eigenvalue.
FIDELITY_PSD_FLOOR = -1e-8
#: Eigenvalue gaps below this are treated as degenerate when ordering.
DEGENERACY_GAP = 1e-10


def qubit_count(dim: int) -> int:
    """Qubit count for a Hilbert-space dimension; raises if not a power of two."""
    n = int(dim - 1).bit_length()
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over the computational basis of ``n_qubits``."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional vector")
        if self.n_qubits < 1 or amps.size != 2**self.n_qubits:
            raise ValueError(
                f"length {amps.size} does not match 2**{self.n_qubits} amplitudes"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state vector norm {norm!r} differs from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a state vector from any nonzero vector, rescaling to unit norm."""
        amps = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(amps / norm, qubit_count(amps.size))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semi-definite matrix on ``n_qubits``."""

    entries: np.ndarray
    n_qubits: int

    def __post_init__(self):
        mat = np.array(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("entries must be a square matrix")
        if self.n_qubits < 1 or mat.shape[0] != 2**self.n_qubits:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match 2**{self.n_qubits}"
            )
        if np.abs(mat - mat.conj().T).max() > HERM_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {trace!r} differs from 1")
        if float(np.linalg.eigvalsh(mat).min()) < EIGVAL_FLOOR:
            raise ValueError("matrix has an eigenvalue below the PSD floor")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @classmethod
    def from_pure(cls, psi: StateVector) -> "DensityMatrix":
        return cls(psi.projector(), psi.n_qubits)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        return cls(np.eye(dim, dtype=np.complex128) / dim, n_qubits)

    @classmethod
    def from_eigensystem(cls, eigenvalues, vectors: np.ndarray) -> "DensityMatrix":
        """Assemble sum_i p_i |v_i><v_i| from columns of ``vectors``."""
        p = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(vectors, dtype=np.complex128)
        mat = (v * p) @ v.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        return cls(mat, qubit_count(mat.shape[0]))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues of a density matrix with matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: tuple[StateVector, ...]

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size != len(self.eigenvectors):
            raise ValueError("eigenvalues and eigenvectors disagree in length")
        if np.any(np.diff(vals) > DEGENERACY_GAP):
            raise ValueError("eigenvalues must be sorted in descending order")
        if abs(vals.sum() - 1.0) > 1e-10:
            raise ValueError("eigenvalues must sum to 1")
        if vals.min() < -1e-10 or vals.max() > 1 + 1e-10:
            raise ValueError("eigenvalues must lie in [0, 1]")
        basis = np.column_stack([v.amplitudes for v in self.eigenvectors])
        gram = basis.conj().T @ basis
        if np.abs(gram - np.eye(vals.size)).max() > 1e-10:
            raise ValueError("eigenvectors are not orthonormal within tolerance")
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def leading_weight(self, r: int) -> float:
        """Sum of the ``r`` largest eigenvalues: the best fidelity any rank-r state can reach."""
        if not 1 <= r <= self.dim:
            raise ValueError(f"rank {r} out of range 1..{self.dim}")
        return float(self.eigenvalues[:r].sum())

    def basis_matrix(self) -> np.ndarray:
        return np.column_stack([v.amplitudes for v in self.eigenvectors])

    def reassemble(self) -> np.ndarray:
        v = self.basis_matrix()
        return (v * self.eigenvalues) @ v.conj().T


def matrix_of(obj) -> np.ndarray:
    """Entries of a DensityMatrix, or a complex square ndarray passed through."""
    if isinstance(obj, DensityMatrix):
        return obj.entries
    arr = np.asarray(obj, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


def vector_of(obj) -> np.ndarray:
    """Amplitudes of a StateVector, or a complex ndarray passed through."""
    if isinstance(obj, StateVector):
        return obj.amplitudes
    arr = np.asarray(obj, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional vector")
    return arr


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _clean_psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Zero out round-off-scale eigenvalues of each last-axis spectrum before a sqrt."""
    cutoff = np.maximum(vals.max(axis=-1, keepdims=True), 0.0) * vals.shape[-1] * 1e-14
    return np.where(vals > cutoff, vals, 0.0)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root, of each member of a stack, via Hermitian eigendecomposition.

    Eigenvalues at round-off scale are clamped at zero; anything below the
    numerical PSD floor, in any member, is a genuine error in the input."""
    vals, vecs = np.linalg.eigh(mat)
    if float(vals.min()) < FIDELITY_PSD_FLOOR:
        raise ValueError("matrix is not positive semi-definite")
    roots = np.sqrt(_clean_psd_eigenvalues(vals))[..., None, :]
    return (vecs * roots) @ vecs.conj().swapaxes(-1, -2)


def fidelity(rho, sigma):
    """Fidelity [Tr sqrt(sqrt(sigma) rho sqrt(sigma))]^2 between two states.

    A (k, d, d) stack ``sigma`` gives an array of k fidelities, one per member."""
    a = matrix_of(rho)
    b = np.asarray(sigma, dtype=np.complex128) if np.ndim(sigma) == 3 else matrix_of(sigma)
    _check_same_dim(a, b)
    if float(np.linalg.eigvalsh(a).min()) < FIDELITY_PSD_FLOOR:
        raise ValueError("first argument is not positive semi-definite")
    root = _psd_sqrt(b)
    lam = np.linalg.eigvalsh(root @ a @ root)
    values = np.clip(np.sqrt(_clean_psd_eigenvalues(lam)).sum(axis=-1) ** 2, 0.0, 1.0)
    return float(values) if values.ndim == 0 else values


def pure_fidelity(rho, psi):
    """Fidelity <psi|rho|psi> of a state against a pure state.

    A (k, d) stack ``psi`` gives an array of k fidelities, one per row."""
    a = matrix_of(rho)
    v = np.asarray(psi, dtype=np.complex128) if np.ndim(psi) == 2 else vector_of(psi)
    if a.shape[0] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {v.shape[-1]}")
    bra = v.conj()
    # vecdot conjugates its first argument, so this sums psi_i (psi^dag rho)_i.
    values = np.clip(np.real(np.vecdot(bra, bra @ a)), 0.0, 1.0)
    return float(values) if values.ndim == 0 else values


def half_trace_norm(diff: np.ndarray) -> np.ndarray:
    """Half the absolute-eigenvalue sum of each Hermitian matrix in a stack.

    ``diff`` is one (d, d) matrix or a (..., d, d) stack; the result has the
    stack's leading shape.
    """
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def trace_distance(rho, sigma) -> float:
    """Half the absolute-eigenvalue sum of (rho - sigma).

    ``sigma`` may be any Hermitian unit-trace matrix; it does not have to be
    positive semi-definite, so deflated intermediate states are accepted.
    """
    a = matrix_of(rho)
    b = matrix_of(sigma)
    _check_same_dim(a, b)
    diff = a - b
    if np.abs(diff - diff.conj().T).max() > 1e-9:
        raise ValueError("difference matrix is not Hermitian within tolerance")
    return float(half_trace_norm(diff))


def _fix_phase(column: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest component is real positive."""
    j = int(np.argmax(np.abs(column)))
    pivot = column[j]
    if abs(pivot) == 0.0:
        return column
    return column * (pivot.conj() / abs(pivot))


def _lex_key(column: np.ndarray):
    return tuple(x for c in column for x in (c.real, c.imag))


def eigendecompose(rho: DensityMatrix) -> Spectrum:
    """Spectral decomposition with a deterministic ordering convention.

    Eigenvalues are sorted in descending order; each eigenvector's phase is
    fixed by making its largest-magnitude component real and positive, and
    near-degenerate eigenvalues (gap below 1e-10) are ordered by the
    lexicographic value of their phase-fixed eigenvectors.
    """
    vals, vecs = np.linalg.eigh(rho.entries)
    order = np.arange(vals.size)[::-1]
    pairs = [(float(vals[i]), _fix_phase(vecs[:, i])) for i in order]

    start = 0
    ordered: list[tuple[float, np.ndarray]] = []
    while start < len(pairs):
        stop = start + 1
        while stop < len(pairs) and pairs[stop - 1][0] - pairs[stop][0] < DEGENERACY_GAP:
            stop += 1
        ordered.extend(sorted(pairs[start:stop], key=lambda pv: _lex_key(pv[1])))
        start = stop

    values = np.array([pv[0] for pv in ordered])
    vectors = tuple(StateVector.normalized(pv[1]) for pv in ordered)
    return Spectrum(values, vectors)


def optimal_rank_r(rho: DensityMatrix, r: int) -> DensityMatrix:
    """Renormalized truncation of the spectrum to its ``r`` largest eigenvalues."""
    spectrum = eigendecompose(rho)
    if not 1 <= r <= spectrum.dim:
        raise ValueError(f"rank {r} out of range 1..{spectrum.dim}")
    kappa = spectrum.leading_weight(r)
    weights = spectrum.eigenvalues[:r] / kappa
    basis = spectrum.basis_matrix()[:, :r]
    return DensityMatrix.from_eigensystem(weights, basis)


def save_state_vector(path, psi: StateVector) -> None:
    jsonio.dump(
        {
            "n_qubits": psi.n_qubits,
            "re": psi.amplitudes.real.tolist(),
            "im": psi.amplitudes.imag.tolist(),
        },
        path,
    )


def load_state_vector(path) -> StateVector:
    doc = jsonio.load(path)
    amps = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return StateVector(amps, int(doc["n_qubits"]))


def save_density_matrix(path, rho: DensityMatrix) -> None:
    jsonio.dump(
        {
            "n_qubits": rho.n_qubits,
            "re": rho.entries.real.tolist(),
            "im": rho.entries.imag.tolist(),
        },
        path,
    )


def load_density_matrix(path) -> DensityMatrix:
    doc = jsonio.load(path)
    mat = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return DensityMatrix(mat, int(doc["n_qubits"]))
