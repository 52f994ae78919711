"""Non-unitary matrix joint diagonalization for complex blind source separation.

The package certifies when a joint diagonalizer of Hermitian- and
transpose-congruence matrix sets is essentially unique (unique up to
permutation and diagonal scaling), constructs explicit counterexample
diagonalizers when it is not, solves the two-matrix mixed case algebraically
(pseudo-uncorrelating transform), and estimates the second- and higher-order
statistics those matrices come from.
"""

from .core import (
    CongruenceKind,
    DiagonalStack,
    GLElement,
    GmElement,
    TaggedMatrix,
    apply_congruence,
    hermitian_skew_split,
    is_essentially_equivalent,
    offdiag_residual,
)
from .linalg import (
    TakagiFactorization,
    general_evd,
    symmetric_orthogonalize,
    takagi,
)
from .solvers import PutResult, put, sut, two_matrix_same_kind
from .statistics import (
    ConjugationPattern,
    CumulantSlice,
    LaggedCorrelation,
    SignalBlock,
    autocorrelation,
    covariance,
    cumulant_slice,
    lagged_cumulant_slice,
    pseudo_autocorrelation,
    pseudo_covariance,
    windowed_covariances,
)
from .simulation import (
    ExperimentConfig,
    ExperimentTruth,
    SourceSpec,
    amari_index,
    generate,
    mix,
    run_experiment,
)
from .uniqueness import UniquenessReport, identifiability_master

__version__ = "0.1.0"
