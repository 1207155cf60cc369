"""Exception types shared across the package.

One class per CLI exit code: ``ParameterError`` (exit 2) for an argument,
option or scenario file that breaks a documented precondition, and
``NumericError`` (exit 3) for a numerical breakdown, an algorithm failing
every trial at a scenario point included.

``ParameterError`` is raised only where input enters, the scenario file and
the CLI's arguments; the per-snapshot layers trust what a trial builds.
"""


class ParameterError(ValueError):
    """An argument, option or scenario file violates a documented precondition."""


class NumericError(RuntimeError):
    """A linear-algebra step failed (singular / non-finite operands), or an
    algorithm produced no usable trial at some scenario point."""
