"""Shared exception types and enumeration guards."""

__all__ = [
    "LENGTH_GUARD",
    "ZONO_RANK_GUARD",
    "GuardExceeded",
    "NotReducedError",
    "check_length_guard",
]

# Enumerations over reduced words, tilings and colorings blow up factorially;
# everything in this package is meant for desk-scale inputs.
LENGTH_GUARD = 20
ZONO_RANK_GUARD = 8


class GuardExceeded(Exception):
    """An enumeration was refused because the input is too large."""


class NotReducedError(ValueError):
    """A word was required to be reduced but is not.

    `position` is the 1-based index of the first letter that would undo an
    inversion instead of creating one.
    """

    def __init__(self, position: int, letter: int):
        self.position = position
        self.letter = letter
        super().__init__(
            f"word is not reduced: letter {letter} at position {position} "
            f"swaps a descent"
        )


def check_length_guard(length: int, what: str) -> None:
    if length > LENGTH_GUARD:
        raise GuardExceeded(
            f"{what} refused: length {length} exceeds the guard {LENGTH_GUARD}"
        )
