"""Exception hierarchy shared across the toolkit.

The command line front end maps these onto process exit codes: input
problems exit with 2, numerical failures with 3 and size-cap refusals
with 4.
"""


class AvlpRangeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AvlpRangeError):
    """Malformed or out-of-contract input data."""


class DimensionError(InputError):
    """Array shapes do not line up."""


class SingularMatrixError(AvlpRangeError):
    """A square system is singular to working precision."""


class NumericalError(AvlpRangeError):
    """A numerical procedure failed to reach a trustworthy answer."""


class UnknownRegularityError(NumericalError):
    """An interval matrix could not be verified regular, so a method that
    relies on regularity refuses to proceed."""


class SizeCapError(AvlpRangeError):
    """The problem exceeds a configured combinatorial size limit."""
