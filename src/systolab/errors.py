"""Exception and warning types shared across the package."""


class SystolabError(Exception):
    """Base class for package-specific errors."""


class BandTooLow(SystolabError):
    """Quadrature band is too low for the requested integrand."""


class NonAdmissibleT(SystolabError):
    """Variation parameter leaves the admissible range (length factor not positive)."""


class DegenerateSystole(SystolabError):
    """Systole value is zero or negative; the ratio is undefined."""


class StepTooLarge(SystolabError):
    """Geodesic integrator step produced an off-sphere drift beyond tolerance."""


class IOFailure(SystolabError):
    """A report or config file could not be read or written (wraps the underlying OSError)."""


class CurvatureNotPositive(UserWarning):
    """Curvature is not positive everywhere; minimax systole characterization not certified."""
