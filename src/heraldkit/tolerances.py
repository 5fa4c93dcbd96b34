"""Numeric tolerances and fixed defaults, collected in one place.

Every hard-coded threshold used by the package lives here so that tests and
calling code can reference the same named constants instead of repeating
magic numbers.
"""

# Hermiticity tolerance for density matrices.
HERMITICITY_ATOL = 1e-12

# Norm tolerance when validating caller-supplied states (loose, because
# callers may have accumulated rounding of their own).
INPUT_NORM_ATOL = 1e-8

# Number of top Fock levels inspected by the tail-mass diagnostic.
TAIL_WINDOW = 5

# Relative probability mass allowed in the tail window before a truncated
# computation is considered invalid.
TAIL_MASS_LIMIT = 1e-8

# Default photon-number cutoff for final scoring and reporting.
DEFAULT_CUTOFF = 40

# Reduced cutoff used inside the genetic search loop.
SEARCH_CUTOFF = 30
