"""Iterative low-rank tomography of mixed quantum states.

The library extracts the leading eigenvalue/eigenstate pairs of a mixed
state directly from projective measurement statistics.  Each step fits a
pure-state RBM ansatz to the current statistics, estimates the matching
eigenvalue through a nonnegativity-safe minimum ratio, subtracts the pair
from the statistics, and repeats until the requested rank is reached or an
additional pair no longer improves the data likelihood.
"""

__version__ = "0.1.0"
