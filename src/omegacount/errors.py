"""Shared exception types."""


class MachineError(ValueError):
    """A machine definition breaks a structural invariant."""


class ArityError(MachineError):
    """A counter vector has the wrong length for the machine."""


class FreshLetterError(ValueError):
    """A marker or pad letter collides with the base alphabet."""


class UnderflowError(ValueError):
    """A stack or queue operation was applied to an empty container."""


class BuildScaleError(ValueError):
    """A construction needs more control states than the cap.

    `estimated_states` is either a true floor on the states the build must
    reach, checked before anything is built (the script-L block coding's
    2Q + 1 for primes with product Q), the states of a build or of a part
    it makes whole before it starts, counted from its parameters (the theta
    acceptor's 3S + 4 for pad factor S, also inside realtime8; D1's Q + 5
    and D4's Q + 7), or the count the build had reached when it passed the
    cap: the cap plus one.  The phi wrapper's refusal of a machine with too
    many counters counts idle guards, not states: its 2**k, counted no
    further than the first power of two past its GUARD_CAP.
    """

    def __init__(self, message: str, estimated_states: int, cap: int):
        super().__init__(message)
        self.estimated_states = estimated_states
        self.cap = cap


class FormatError(ValueError):
    """A text file does not parse under the expected format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
