"""Exception types shared across the package.

InputError covers malformed user input (CLI exit code 2); NumericalError
covers runtime numerical failures such as transform normalization drift or
root-bracket failure (CLI exit code 3).
"""


class InputError(ValueError):
    """Invalid problem specification, counts, or parameter value."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""
