"""Exception hierarchy shared by all treelevel modules."""


class TreelevelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGraph(TreelevelError):
    """The graph violates an invariant of its kind."""


class KindMismatch(TreelevelError):
    """Two graphs (or a graph and a space) of incompatible kinds."""


class NoSuchEdge(TreelevelError):
    pass


class NoSuchLeg(TreelevelError):
    pass


class ForbiddenCollapse(TreelevelError):
    """Collapsing this edge is not a morphism of colored trees."""


class NotInfinityVertex(TreelevelError):
    pass


class NothingToCollapse(TreelevelError):
    pass


class DuplicateLegLabel(TreelevelError):
    pass


class ForbiddenCut(TreelevelError):
    """Cutting a root-path edge of a colored kind is not supported."""


class CannotForgetRoot(TreelevelError):
    pass


class MinimumMarkings(TreelevelError):
    """Forgetting would drop the marking count below the space minimum."""


class TooLarge(TreelevelError):
    """Enumeration request exceeds the resource guard."""


class InvalidArgument(TreelevelError):
    """An input value does not parse or lies out of range."""


class NoColoredVertex(TreelevelError):
    pass


class Disconnected(TreelevelError):
    pass


class MissingArity(TreelevelError):
    """An operation needs tensor data at an arity that was not supplied."""


class CapExceeded(TreelevelError):
    pass


class CurvedMorphismUnsupported(TreelevelError):
    pass


class DegenerateQDE(TreelevelError):
    """The classical part of the product is not nilpotent, so the
    order-by-order recursion cannot be inverted."""


class RankUnsupported(TreelevelError):
    """Counting is only implemented for rank-one torus actions."""


class EmptySector(TreelevelError):
    """The fixed locus of this sector has empty semistable set."""


class UnstableSector(TreelevelError):
    pass


class InvalidAction(TreelevelError):
    """Torus weights/stability data violate the half-space or
    stable=semistable preconditions."""
