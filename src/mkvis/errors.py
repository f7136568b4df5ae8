"""Exception types shared across the package."""

__all__ = ["DisconnectedGraphError", "GeodesicCapError", "GraphInputError", "SizeLimitError"]


class GraphInputError(ValueError):
    """Malformed input: bad vertex ids, self-loops, duplicate edges, bad parameters."""


class DisconnectedGraphError(ValueError):
    """An operation that needs connectivity was given a disconnected graph."""


class SizeLimitError(RuntimeError):
    """An exact solver refused an instance above its configured size limit."""


class GeodesicCapError(SizeLimitError):
    """The enumeration oracle hit its geodesic cap and refuses to answer."""
