"""Exception types shared across the package."""


class KMError(Exception):
    """Base class for all domain errors."""


class InvalidGCM(KMError):
    """Input matrix violates the generalized Cartan matrix axioms."""


class NonIntegralPairing(KMError):
    """A reflection was requested at a node with non-integral pairing."""


class CapExceeded(KMError):
    """Group enumeration hit its word-length cap with live frontier."""


class InfiniteStabilizer(KMError):
    """The orbit formula's finite-stabilizer hypothesis fails."""


class NotFiniteType(KMError):
    """Operation requires every diagram component to be of finite type."""


class NotIntegrable(KMError):
    """Operation requires a dominant integral highest weight."""


class NotDominantIntegral(KMError):
    """Highest weight is not dominant integral on the requested nodes."""


class BudgetExceeded(KMError):
    """Work is over a size budget: oracle words, Weyl group or denominator terms."""


class WrongRank(KMError):
    """Operation requires a diagram of a specific rank."""


class FiniteType(KMError):
    """Operation requires an infinite-type diagram."""
