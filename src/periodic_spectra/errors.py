"""Exception types shared across the package."""


class PeriodicGraphError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(PeriodicGraphError):
    """Malformed or invalid graph input (parsing, validation, unknown builtin)."""


class SearchCapExceeded(PeriodicGraphError):
    """The exact gauge search (:func:`graphs.minimize_bridges`) would exceed its cap."""


class HermiticityError(PeriodicGraphError):
    """A fiber operator is not Hermitian coefficient by coefficient; signals a bad assembly."""


class EngineMismatchError(PeriodicGraphError):
    """The symbolic and combinatorial engines disagree beyond tolerance."""
