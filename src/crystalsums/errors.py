"""Exception types shared across the package."""


class CrystalSumsError(Exception):
    """Base class for all package errors."""


class ShapeSyntaxError(ValueError):
    """Malformed input: a shape, weight, level or flag that does not parse,
    has the wrong length or is negative.  `crystalsums` exits 2 on it."""


class CapExceeded(CrystalSumsError):
    """An enumeration or rank exceeded its configured size cap."""


class UnsupportedError(CrystalSumsError):
    """The requested combination (type, factor, restriction) is out of scope."""


class CrystalStructureError(CrystalSumsError):
    """A factor crystal lacks an element its type guarantees.

    This indicates broken classical arrows, not bad user input.
    """


class IsomorphismError(CrystalSumsError):
    """The parallel BFS for the combinatorial R-matrix found a mismatch.

    This indicates broken affine arrows, not bad user input.
    """


class EnergyConsistencyError(CrystalSumsError):
    """Local energy propagation produced conflicting values on a cycle."""


class InvolutionError(CrystalSumsError):
    """The sign-reversing involution left its domain or lost its pairing."""


class NonIntegralExponent(CrystalSumsError):
    """A q-exponent that must be an integer came out fractional."""


class InexactDivision(CrystalSumsError):
    """A polynomial division that must be exact left a remainder."""
