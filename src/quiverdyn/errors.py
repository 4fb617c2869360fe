"""Exception hierarchy for quiverdyn.

Every error raised deliberately by this package derives from QuiverdynError,
so callers (and the CLI) can distinguish our diagnostics from genuine bugs.
"""


class QuiverdynError(Exception):
    """Base class for all quiverdyn errors."""


class ParseError(QuiverdynError):
    """Malformed input file or polynomial expression."""


# --- structural validation -------------------------------------------------

class DanglingArrow(QuiverdynError):
    """An arrow references a vertex id that is not listed."""


class ShapeMismatch(QuiverdynError):
    """A matrix does not have the shape demanded by the vertex dimensions."""


class ModeUnavailable(QuiverdynError):
    """Exact arithmetic requested on data with float entries."""


class DegreeOverflow(QuiverdynError):
    """A polynomial operation exceeded the configured degree cap."""


class SizeOverflow(QuiverdynError):
    """A requested basis or enumeration exceeds the configured size cap."""


# --- networks ---------------------------------------------------------------

class EdgeColourClash(QuiverdynError):
    """Same-coloured edges with differently coloured sources or targets."""


class InputMismatch(QuiverdynError):
    """Same-coloured nodes whose incoming edge-colour multisets differ."""


class DimClash(QuiverdynError):
    """Same-coloured nodes with different internal dimensions."""


class DependencyViolation(QuiverdynError):
    """A component depends on the state of a node that is not an in-neighbour."""


class GroupoidViolation(QuiverdynError):
    """A component is not invariant under an input-set bijection."""


class NotAdmissible(QuiverdynError):
    """A map failed the admissibility check required by this operation."""


# --- linear algebra / spectral ----------------------------------------------

class NotInvariant(QuiverdynError):
    """A map's image leaves the given subspace beyond tolerance."""


class ClusterSplit(QuiverdynError):
    """Eigenvalue gap below resolution; refusing to assign clusters."""


class AxisAmbiguous(QuiverdynError):
    """Eigenvalue near the imaginary axis but not clustered onto it."""


class IllConditioned(QuiverdynError):
    """A float-mode decomposition is too ill-conditioned to trust."""


class RankAmbiguous(QuiverdynError):
    """Singular values straddle the rank threshold."""


class SolveFailed(QuiverdynError):
    """A linear system has no unique solution."""


# --- reductions ---------------------------------------------------------------

class NotEquilibrium(QuiverdynError):
    """The origin is not a zero of the map at parameter 0."""


class SingularImageBlock(QuiverdynError):
    """The image-block of the linearization is not invertible."""


class NewtonDiverged(QuiverdynError):
    """Newton iteration failed to converge."""


class DomainTooSmall(QuiverdynError):
    """No common neighbourhood found at the requested radius."""


class ResonantBlock(QuiverdynError):
    """A Sylvester-type solve was singular despite a spectral gap."""


class CaseMismatch(QuiverdynError):
    """Input coefficients do not realize the requested degeneracy."""
