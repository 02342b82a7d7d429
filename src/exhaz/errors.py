"""Exception hierarchy shared across the package."""


class ExhazError(Exception):
    """Base class for all package-specific errors."""


class UnknownStratum(ExhazError):
    """A queried strata value does not exist in the table."""


class ZeroHazardPath(ExhazError):
    """Inverse lookup impossible: zero hazard everywhere on the path."""


class NumericalOverflow(ExhazError):
    """A survival tail underflowed beyond what stable forms can represent."""


class NonFiniteLikelihood(ExhazError):
    """A per-patient likelihood term evaluated to NaN or infinity."""

    def __init__(self, message, patient_index=None):
        super().__init__(message)
        self.patient_index = patient_index


class NonPositive(ExhazError):
    """A parameter that must be strictly positive is not."""


class SEsUnavailable(ExhazError):
    """Standard errors were requested but could not be computed."""


class NoEligibleFit(ExhazError):
    """Model selection received no converged candidate fits."""


class TargetUnreachable(ExhazError):
    """The requested censoring proportion cannot be achieved."""


class DataError(ExhazError):
    """An input data file (cohort or life table) failed validation."""
