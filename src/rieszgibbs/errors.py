"""Exception types shared across the library."""


class RieszGibbsError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(RieszGibbsError):
    """Input violates the Hermitian precondition of a spectral routine."""


class NoConvergence(RieszGibbsError):
    """A factorization failed or did not reach its accuracy contract."""


class Singular(RieszGibbsError):
    """Matrix is singular or too ill-conditioned to invert reliably."""


class NotUnitary(RieszGibbsError):
    """Frame matrix fails the unitarity tolerance."""


class DimensionMismatch(RieszGibbsError):
    """Operands have incompatible shapes."""


class NotNormalized(RieszGibbsError):
    """Entropy requested for a density pair built without normalization."""


class BadModel(RieszGibbsError):
    """Model specification produces an invalid spectrum or constructing operator."""


class ConfigError(RieszGibbsError):
    """Run configuration violates the strict schema."""
