"""Exception types shared across the package."""


class PmspError(Exception):
    """Base class for all package errors."""


class GraphParseError(PmspError):
    """Input text or JSON does not encode a valid simple graph."""


class SelfLoopError(GraphParseError):
    """An edge joins a vertex to itself."""


class DisconnectedError(PmspError):
    """Operation requires a connected graph."""


class NotBipartiteError(PmspError):
    """Operation requires a bipartite graph (or a valid bipartition)."""


class NotPseudotreeError(PmspError):
    """Operation requires a connected graph with at most |V| edges."""


class TooLargeError(PmspError):
    """Input exceeds the enumeration budget of the operation."""


class UnsupportedShapeError(PmspError):
    """Complete multipartite shape outside the classified families."""


class DegeneratePointSetError(PmspError):
    """Lattice normalization needs at least two points."""


class InconsistentFacetsError(PmspError):
    """Criterion-based facet flags disagree with rank-based detection."""
