"""Exception and warning types shared across the package, and how it warns."""

import sys
import warnings

_PACKAGE = __name__.partition(".")[0]


class NujdError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(NujdError):
    """Operands have incompatible shapes."""


class NonFiniteEntries(NujdError):
    """A matrix or signal contains NaN or infinite entries."""


class SymmetryViolation(NujdError):
    """A matrix does not belong to the symmetry class its tag claims."""


class SingularMatrix(NujdError):
    """A matrix required to be invertible is numerically singular."""


class PatternViolation(NujdError):
    """A matrix is not a diagonal-times-permutation pattern."""


class NumericFailure(NujdError):
    """Base class for the named numeric failures of a factorization or solve."""


class SingularPseudoCovariance(NumericFailure):
    """A Takagi singular value fell below the invertibility floor."""


class OrthogonalizationFailure(NumericFailure):
    """W^T W is numerically singular; the complex-orthogonal polar part does not exist."""


class DefectiveMatrix(NumericFailure):
    """An eigendecomposition was requested of a (numerically) defective matrix."""


class DegenerateSpectrum(NumericFailure):
    """Eigenvalues coincide where the algorithm needs them pairwise distinct."""


class NotPositiveDefinite(NumericFailure):
    """The Hermitian operand must be positive definite and is not."""


class SingularSecondMatrix(NumericFailure):
    """The second matrix of a two-matrix solve is numerically singular."""


class InvalidPrecondition(NujdError):
    """The caller invoked an operation outside its stated precondition."""


class WitnessVerificationError(NujdError):
    """An internally constructed non-uniqueness witness failed its self-check."""


class ConfigError(NujdError):
    """An experiment or CLI configuration is invalid."""


class DegenerateSpectrumWarning(UserWarning):
    """Non-fatal notice that an eigenvalue gap is too small to trust the result."""


class RankDeficiencyWarning(UserWarning):
    """Non-fatal notice that a sample statistic is rank deficient by construction."""


def warn(message: str, category: type) -> None:
    """``warnings.warn`` located at the first calling frame outside this package.

    A fixed ``stacklevel`` names a ``nujd`` line whenever the warning is
    raised below another ``nujd`` function (``solve_pair``, an
    ``estimate_statistic`` recipe entry), so the frames are walked instead.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
