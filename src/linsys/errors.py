"""Exception types shared across the package."""


class LinsysError(Exception):
    """Base class for all domain errors."""


class LinearityViolation(LinsysError):
    """Two lines share more than one point."""

    def __init__(self, first: int, second: int, shared):
        self.first = first
        self.second = second
        self.shared = tuple(sorted(shared))
        super().__init__(
            f"lines {first} and {second} share {len(self.shared)} points "
            f"{list(self.shared)} (at most one allowed)"
        )


class BadIndex(LinsysError):
    """A point or line index is out of range."""


class DuplicateLine(LinsysError):
    """The same point set appears twice in the line list."""


class EmptyLine(LinsysError):
    """A line with no points was supplied."""


class NoLines(LinsysError):
    """The operation needs at least one line."""


class NotTwoPacking(LinsysError):
    """A line set offered as a 2-packing repeats a line or puts a point
    on three of its lines."""


class SizeLimit(LinsysError):
    """Instance exceeds a configured search cap."""


class NotPrime(LinsysError):
    """Field characteristic must be prime."""


class NotPrimePower(LinsysError):
    """Plane order must be a prime power."""


class OddOrder(LinsysError):
    """Hyperovals exist only in planes of even order."""


class NotUniform(LinsysError):
    """The system is not r-uniform."""


class NotIntersecting(LinsysError):
    """Some pair of lines is disjoint."""


class NotMember(LinsysError):
    """System fails the rank/domination membership test."""


class DerivationFailed(LinsysError):
    """No qualifying uniform spanning subsystem was found."""


class FormatError(LinsysError):
    """Malformed system file."""
