"""Iterative low-rank tomography of mixed quantum states.

The library extracts the leading eigenvalue/eigenstate pairs of a mixed
state directly from projective measurement statistics.  Each step fits a
pure-state RBM ansatz to the current statistics, estimates the matching
eigenvalue through a nonnegativity-safe minimum ratio, subtracts the pair
from the statistics, and repeats until the requested rank is reached or an
additional pair no longer improves the data likelihood.
"""

__version__ = "0.1.0"

from .states import (
    DensityMatrix,
    Spectrum,
    StateVector,
    eigendecompose,
    fidelity,
    optimal_rank_r,
    pure_fidelity,
)
from .measurement import (
    MeasurementDataset,
    bell_mixture,
    exact_dataset,
    generate_basis_set,
    make_w_mixture,
    sample_dataset,
    w_state,
)
from .rbm import NqsState, RbmParams
from .costs import CostSpec
from .training import TrainConfig, TrainingLog, train_next_eigenstate
from .reconstruction import (
    IterationReport,
    SpectralApprox,
    deflate,
    estimate_dominant_eigenvalue,
    log_likelihood,
    reconstruct,
    relative_fidelity,
)
