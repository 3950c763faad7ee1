"""Exceptions shared across the game modules."""


class InvariantViolation(RuntimeError):
    """A mathematically impossible state was reached.

    Raising this falsifies the implementation, never the mathematics;
    the CLI maps it to exit code 3.
    """


class ProtocolError(RuntimeError):
    """The limit-stage extension protocol was used outside its contract."""


class InputError(ValueError):
    """Malformed input from outside the program; the CLI maps it to exit 64."""
