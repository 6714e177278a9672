"""Dense complex linear algebra for small multi-qubit systems.

State vectors, density matrices, spectral decompositions, fidelity, and the
half trace norm that gives each trace distance.  Everything is
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
#: Eigenvalues may rise by at most this much along a descending spectrum.
DEGENERACY_GAP = 1e-10
#: Gram-minus-identity bound of orthonormal columns.  A fitted state's overlap
#: with the kept ones is round-off over |P phi|, up to 1e-12 after short fits.
GRAM_ATOL = 1e-10


def gram_deviation(vectors: np.ndarray) -> float:
    """Largest entry of |V^dag V - I| over the columns V of ``vectors``."""
    gram = vectors.conj().T @ vectors
    return float(np.abs(gram - np.eye(len(gram))).max(initial=0.0))


def require_orthonormal(vectors: np.ndarray, what: str) -> None:
    """Raise ValueError unless the columns of ``vectors`` are orthonormal:
    their Gram matrix within ``GRAM_ATOL`` of the identity, entry by entry."""
    if not gram_deviation(vectors) <= GRAM_ATOL:
        raise ValueError(f"{what} are not orthonormal within {GRAM_ATOL}")


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
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
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

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        skew = mat.conj().T
        np.subtract(mat, skew, out=skew)
        if np.abs(skew).max() > HERM_ATOL:
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
        return cls(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.n_qubits)

    @classmethod
    def from_eigensystem(cls, eigenvalues, vectors: np.ndarray) -> "DensityMatrix":
        """Assemble sum_i p_i |v_i><v_i| from columns of ``vectors``."""
        p = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(vectors, dtype=np.complex128)
        mat = (v * p) @ v.conj().T
        np.add(mat, mat.conj().T, out=mat)
        mat *= 0.5
        return cls(mat, qubit_count(mat.shape[0]))


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues of a density matrix and, as the columns of one
    read-only (d, d) matrix ``vectors``, their eigenvectors: column k belongs
    to eigenvalue k."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.vectors, dtype=np.complex128)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvalues and eigenvector columns disagree in length")
        if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
            raise ValueError("eigenvalues and eigenvectors must be finite")
        if np.any(np.diff(vals) > DEGENERACY_GAP):
            raise ValueError("eigenvalues must be sorted in descending order")
        if abs(vals.sum() - 1.0) > 1e-10:
            raise ValueError("eigenvalues must sum to 1")
        if vals.min() < -1e-10 or vals.max() > 1 + 1e-10:
            raise ValueError("eigenvalues must lie in [0, 1]")
        require_orthonormal(vecs, "eigenvectors")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def eigenvector(self, k: int) -> StateVector:
        """The eigenvector of eigenvalue ``k`` (column k) as a state."""
        return StateVector(self.vectors[:, k], qubit_count(self.dim))

    def leading_weight(self, r: int) -> float:
        """Sum of the ``r`` largest eigenvalues: the best fidelity any rank-r state can reach."""
        if not 1 <= r <= self.dim:
            raise ValueError(f"rank {r} out of range 1..{self.dim}")
        return float(self.eigenvalues[:r].sum())


def matrix_of(obj) -> np.ndarray:
    """Entries of a DensityMatrix, or a complex square ndarray passed through."""
    if isinstance(obj, DensityMatrix):
        return obj.entries
    arr = np.asarray(obj, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


def _clean_psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Zero out round-off-scale eigenvalues of each last-axis spectrum before a sqrt."""
    cutoff = np.maximum(vals.max(axis=-1, keepdims=True), 0.0) * vals.shape[-1] * 1e-14
    return np.where(vals > cutoff, vals, 0.0)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root via Hermitian eigendecomposition.

    Eigenvalues at round-off scale are clamped at zero; anything below the
    numerical PSD floor is a genuine error in the input."""
    vals, vecs = np.linalg.eigh(mat)
    if float(vals.min()) < FIDELITY_PSD_FLOOR:
        raise ValueError("matrix is not positive semi-definite")
    roots = np.sqrt(_clean_psd_eigenvalues(vals))
    return (vecs * roots) @ vecs.conj().T


def _require_psd(rho_eigenvalues: np.ndarray) -> None:
    if float(rho_eigenvalues.min()) < FIDELITY_PSD_FLOOR:
        raise ValueError("first argument is not positive semi-definite")


def _fidelity_of_core(lam: np.ndarray) -> np.ndarray:
    """(sum sqrt lam)^2 over the last axis: the fidelity from the spectra of
    sqrt(sigma) rho sqrt(sigma), round-off cleaned and clipped to [0, 1]."""
    return np.clip(np.sqrt(_clean_psd_eigenvalues(lam)).sum(axis=-1) ** 2, 0.0, 1.0)


def fidelity(rho, sigma) -> float:
    """Fidelity [Tr sqrt(sqrt(sigma) rho sqrt(sigma))]^2 between two states."""
    a = matrix_of(rho)
    b = matrix_of(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    _require_psd(np.linalg.eigvalsh(a))
    root = _psd_sqrt(b)
    return float(_fidelity_of_core(np.linalg.eigvalsh(root @ a @ root)))


def pure_fidelity(rho, psi):
    """Fidelity <psi|rho|psi> of a state against a pure state.

    ``psi`` is a StateVector, one amplitude vector, or a (k, d) stack, which
    gives an array of k fidelities, one per row."""
    a = matrix_of(rho)
    if isinstance(psi, StateVector):
        psi = psi.amplitudes
    v = np.asarray(psi, dtype=np.complex128)
    if v.ndim not in (1, 2):
        raise ValueError("expected one vector or a (k, d) stack of vectors")
    if a.shape[0] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {v.shape[-1]}")
    bra = v.conj()
    # vecdot conjugates its first argument, so this sums psi_i (psi^dag rho)_i.
    values = np.clip(np.real(np.vecdot(bra, bra @ a)), 0.0, 1.0)
    return float(values) if values.ndim == 0 else values


def frame_fidelity(rho, frames, weights) -> np.ndarray:
    """Fidelities of a state against rank-r states given as frames and weights.

    Member k is sigma_k = Q_k diag(w_k) Q_k^dag, with ``frames`` a (k, d, r)
    stack of orthonormal columns Q_k and ``weights`` a (k, r) array w_k.
    Then sqrt(sigma) rho sqrt(sigma) = Q C Q^dag with the r x r core
    C = diag(sqrt w) Q^dag rho Q diag(sqrt w), so each fidelity is
    (sum sqrt(eig C))^2, the value ``fidelity`` gives on each assembled member.
    """
    a = matrix_of(rho)
    q = np.asarray(frames, dtype=np.complex128)
    w = np.asarray(weights, dtype=float)
    if q.ndim != 3 or q.shape[1] != a.shape[0] or w.shape != (q.shape[0], q.shape[2]):
        raise ValueError(f"frames {q.shape} and weights {w.shape} do not fit a {a.shape} state")
    if float(w.min()) < 0.0:
        raise ValueError("weights must be non-negative")
    _require_psd(np.linalg.eigvalsh(a))
    roots = np.sqrt(w)
    core = (q.conj().swapaxes(1, 2) @ a @ q) * roots[:, :, None] * roots[:, None, :]
    return _fidelity_of_core(np.linalg.eigvalsh(core))


#: Cap on the Newton steps of ``pure_trace_distance``.  Random challengers
#: settle in 4-6 steps.  The slow case is a challenger at angle t from a
#: nearly pure rho's eigenvector: it starts near t^2, below a root near t,
#: and doubles per step, so the cap binds only where t < 2^-64.
SECULAR_MAX_STEPS = 64


def pure_trace_distance(rho, psi) -> np.ndarray:
    """Trace distances between a state and each row of a (k, d) stack of pure states.

    With rho = V diag(p) V^dag and w = |V^dag psi|^2, the eigenvalues of
    rho - psi psi^dag interlace p, so at most one, mu, is negative, and the
    trace is 0, so the distance is -mu: the root below every pole with
    w_i > 0 of the secular equation sum_i w_i / (p_i - mu) = 1 (Golub,
    SIAM Rev. 15, 318 (1973)).  With x = p_min - mu and d_i = p_i - p_min,
    F(x) = 1 / sum_i w_i / (d_i + x) is concave and increasing, so Newton
    on F = 1 climbs to the root from any start below it.  The start is the
    larger of two such bounds: 1 - sum_i w_i d_i (Jensen's inequality,
    i.e. D >= 1 - <psi|rho|psi>) and max_i (w_i - d_i) (one term alone
    reaches 1).  Zero-weight terms drop out, so a challenger orthogonal to
    a degenerate p_min eigenspace divides by no zero.
    """
    a = matrix_of(rho)
    v = np.asarray(psi, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] != a.shape[0]:
        raise ValueError(f"expected a (k, {a.shape[0]}) stack of states, got {v.shape}")
    trace = complex(np.trace(a))
    if abs(trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace {trace!r} differs from 1")
    if float(np.abs(np.linalg.norm(v, axis=1) - 1.0).max()) > NORM_ATOL:
        raise ValueError("challenger rows must have unit norm")
    p, vecs = np.linalg.eigh(a)
    _require_psd(p)
    w = np.abs(v @ vecs.conj()) ** 2
    gaps = p - p[0]
    x = np.maximum(1.0 - w @ gaps, (w - gaps).max(axis=1))[:, None]
    present = w > 0.0
    for _ in range(SECULAR_MAX_STEPS):
        # A zero weight's denominator is set to 1: its term is 0 either way.
        denominators = np.where(present, gaps + x, 1.0)
        terms = w / denominators
        h = terms.sum(axis=1, keepdims=True)
        slope = (terms / denominators).sum(axis=1, keepdims=True)
        climbed = x + np.maximum(h * (h - 1.0) / slope, 0.0)
        if np.array_equal(climbed, x):
            break
        x = climbed
    return x[:, 0] - p[0]


def half_trace_norm(diff: np.ndarray) -> np.ndarray:
    """Half the absolute-eigenvalue sum of each Hermitian matrix in a stack.

    ``diff`` is one (d, d) matrix or a (..., d, d) stack; the result has the
    stack's leading shape.
    """
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def eigendecompose(rho: DensityMatrix) -> Spectrum:
    """Spectral decomposition with a deterministic ordering convention.

    Eigenvalues are sorted in descending order, and each eigenvector's phase
    is fixed by making its largest-magnitude component real and positive.
    Within a run of tied eigenvalues the eigenvectors keep the order in which
    ``eigh``, itself deterministic, returns them.
    """
    vals, vecs = np.linalg.eigh(rho.entries)
    # Row k is the eigenvector of eigenvalue k.  Each has unit norm, so its
    # pivot (largest-modulus component) is nonzero.  np.hypot rounds as the
    # scalar abs of one pivot does; np.abs of the complex array may not.
    rows = vecs.T[::-1]
    pivots = rows[np.arange(vals.size), np.argmax(np.abs(rows), axis=1)]
    rows = rows * (pivots.conj() / np.hypot(pivots.real, pivots.imag))[:, None]
    rows /= np.array([np.linalg.norm(row) for row in rows])[:, None]
    # The transpose keeps each eigenvector contiguous, as a column.
    return Spectrum(vals[::-1], rows.T)


def optimal_rank_r(rho: DensityMatrix, r: int) -> DensityMatrix:
    """Renormalized truncation of the spectrum to its ``r`` largest eigenvalues."""
    spectrum = eigendecompose(rho)
    kappa = spectrum.leading_weight(r)
    weights = spectrum.eigenvalues[:r] / kappa
    return DensityMatrix.from_eigensystem(weights, spectrum.vectors[:, :r])


def state_doc(entries: np.ndarray, n_qubits: int) -> dict:
    """The JSON object of a state vector's amplitudes or a density matrix's
    entries, as ``_load_state`` reads it back.  ``re`` and ``im`` are views
    of ``entries``, which ``jsonio.dump`` writes one row at a time."""
    return {"n_qubits": n_qubits, "re": entries.real, "im": entries.imag}


def save_state_vector(path, psi: StateVector) -> None:
    jsonio.dump(state_doc(psi.amplitudes, psi.n_qubits), path)


def _load_state(path, cls):
    """The ``cls`` (``StateVector`` or ``DensityMatrix``) of entries re + i im
    and ``n_qubits`` in a file written by ``save_state_vector`` or
    ``save_density_matrix``; ValueError, naming the file, unless the file
    holds an object with an integer ``n_qubits`` (booleans are not) that
    matches the leading dimension of the entries, ``re`` and ``im`` arrays of
    finite numbers of one shape, and entries that ``cls`` accepts."""
    try:
        doc = jsonio.load(path)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"state file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"state file {path} does not hold a JSON object")
    n_qubits = doc.get("n_qubits")
    if type(n_qubits) is not int:
        raise ValueError(f"state file {path} n_qubits must be an integer, got {n_qubits!r}")
    fields = []
    for name in ("re", "im"):
        try:
            values = np.asarray(doc.get(name))
        except ValueError:  # ragged nesting
            values = np.asarray(None)
        if values.dtype.kind not in "if" or not np.isfinite(values).all():
            raise ValueError(f"state file {path} field {name!r} must be an array of finite numbers")
        fields.append(values)
    real, imag = fields
    if real.shape != imag.shape:
        raise ValueError(
            f"state file {path} field 'im' has shape {imag.shape}, 're' {real.shape}"
        )
    entries = real + 1j * imag
    # Checked before a constructor forms 2**n_qubits, which never ends for a
    # huge n_qubits.
    dim = entries.shape[0] if entries.ndim else 0
    if n_qubits != dim.bit_length() - 1:
        raise ValueError(f"state file {path} n_qubits {n_qubits} does not match dimension {dim}")
    try:
        return cls(entries, n_qubits)
    except ValueError as exc:
        raise ValueError(f"state file {path}: {exc}") from None


def load_state_vector(path) -> StateVector:
    return _load_state(path, StateVector)


def save_density_matrix(path, rho: DensityMatrix) -> None:
    jsonio.dump(state_doc(rho.entries, rho.n_qubits), path)


def load_density_matrix(path) -> DensityMatrix:
    return _load_state(path, DensityMatrix)
