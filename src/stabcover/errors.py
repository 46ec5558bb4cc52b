"""Shared exception types."""


class StabcoverError(Exception):
    """Base class for library errors."""


class CapExceededError(StabcoverError):
    """An enumeration or search exceeded its configured cap.

    No library caller catches it: one that can degrade (the tri-state
    S4/S5 fields) checks its cap before listing, as `factored_orders`
    compares q |B0| with the enumeration cap, and the command line maps
    the error to exit code 2.
    """

    def __init__(self, what: str, needed, cap):
        super().__init__(f"{what}: needed {needed}, cap {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class DomainError(StabcoverError):
    """A precondition on an argument was violated."""
