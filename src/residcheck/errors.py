"""Exception hierarchy.

Two branches matter for the CLI exit codes: ``InputDataError`` (malformed
files, bad configuration; exit code 2) and ``EstimationError`` (statistical
or numerical validation failures; exit code 3).
"""


class ResidcheckError(Exception):
    """Base class for all package errors."""


class InputDataError(ResidcheckError):
    """Malformed input files or configuration (CLI exit code 2)."""


class MissingColumn(InputDataError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in CSV header")
        self.column = column


class NonBinaryTreatment(InputDataError):
    def __init__(self, row: int, value: str):
        super().__init__(f"treatment value {value!r} on row {row} is not in {{0, 1}}")
        self.row = row


class NonFiniteValue(InputDataError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"non-finite value {value!r} in column {column!r} on row {row}")
        self.row = row
        self.column = column


class WrongFieldCount(InputDataError):
    def __init__(self, row: int, expected: int, actual: int):
        super().__init__(
            f"row {row} has {actual} fields but the header has {expected} columns"
        )
        self.row = row
        self.expected = expected
        self.actual = actual


class EmptyFile(InputDataError):
    pass


class UnknownLab(InputDataError):
    pass


class ConfigError(InputDataError):
    pass


class EstimationError(ResidcheckError):
    """Statistical or numerical validation failure (CLI exit code 3)."""


class InvalidCovariance(EstimationError):
    """Joint covariance blocks are non-finite, asymmetric, misshapen or non-positive."""


class SingularCheckCovariance(EstimationError):
    """Check covariance block is singular or too ill-conditioned to invert.

    Signals collinear diagnostic checks; raised when the Cholesky
    factorization fails or the reciprocal condition number is below 1e-12.
    """


class DegenerateResidualVariance(EstimationError):
    """Residual variance is not strictly positive.

    The model requires the baseline variance to strictly exceed the part
    explained by the checks; equality means the estimator is an exact linear
    function of the checks and the adjusted estimator would be deterministic.
    """


class DimensionMismatch(EstimationError):
    pass


class NegativeMu(EstimationError):
    pass


class TooFewClusters(EstimationError):
    pass


class EmptyArm(EstimationError):
    pass


class RankDeficientDesign(EstimationError):
    pass


class DomainError(EstimationError):
    """Parameter outside the mathematical domain of a closed-form oracle."""


class DegenerateRule(EstimationError):
    """Reporting rule passes with probability too close to 0 or 1."""


class WeightUnderflow(EstimationError):
    """Perturbation weights 1 + s/sqrt(n) fall outside [0, 2] at this n."""
