"""Balance and abelian-complexity analysis of the Tribonacci word and the
m-bonacci family: morphic word generation, Parikh/balance analysis,
Tribonacci numeration, spectral discrepancy bounds, the synchronized
digit automaton of the Tribonacci word's abelian complexity, and
special-factor characterizations."""

import os

# Load numpy with a one-thread OpenBLAS.  Every computation here runs in
# one thread, and the only BLAS/LAPACK calls are a 3x3 solve and a small
# matrix-vector product, so the worker pool OpenBLAS starts on load is
# never used, yet it spins for about 0.13 s of CPU before it sleeps.
# OpenBLAS reads the variable once, when it loads, so it is removed again
# at once and child processes inherit nothing.  A value the caller set is
# honoured.  When numpy was imported before this package, OpenBLAS has
# already started its pool and this does nothing.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .abelian import (
    BalanceWitness,
    ParikhVector,
    ProfileRow,
    abelian_complexity,
    abelian_profile,
    imbalance_witness_search,
    parikh_set,
    prefix_balance_check,
    prefix_balance_profile,
    verify_witness,
    window_parikh,
)
from .errors import (
    BufferLimitError,
    ConfigurationError,
    InvalidInputError,
    InvalidRepresentationError,
    InvariantViolationError,
    NumericError,
    RangeError,
    SaturationError,
    TribalanceError,
    VerificationFailureError,
)
from .factors import FactorIndex, factor_index, scan_distinct_factors
from .numeration import (
    is_valid_rep,
    is_valid_rep_many,
    prefix_parikh_from_digits,
    tribonacci_number,
    tribonacci_numbers_upto,
    zeckendorf_decode,
    zeckendorf_decode_many,
    zeckendorf_encode,
    zeckendorf_encode_many,
)
from .special import (
    EquivalenceRow,
    GeometryClassification,
    GeometryRegion,
    SpecialFactorRecord,
    is_min_complexity_length,
    min_complexity_lengths,
    right_special_factor,
    twelve_vector_geometry,
    verify_equivalences,
)
from .spectral import (
    SpectralData,
    balance_bound_from_interval,
    certify_balance_bounds,
    compute_spectral_data,
    discrepancy_blocks,
    discrepancy_direct,
    discrepancy_extremes,
    discrepancy_from_digits,
    discrepancy_spectral,
    synchronization_window,
)
from .synchronized import synchronized_profile
from .words import (
    Morphism,
    WordBuffer,
    apply_morphism,
    as_word,
    fixed_point_prefix,
    incidence_matrix,
    mbonacci_morphism,
    mbonacci_word,
    prefix_count_blocks,
    tribonacci_morphism,
    tribonacci_word,
    word_to_text,
)

__version__ = "0.1.0"
