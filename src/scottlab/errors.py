"""Exception types shared across the package.

The CLI maps these onto exit codes: malformed input is a UsageError
(exit 2), while NotIsomorphic and NotBoundary are mathematical verdicts
that the CLI reports normally (exit 0).
"""


class UsageError(ValueError):
    """Input the operation cannot use; the base of every input error below."""


class UnknownCpo(UsageError):
    """Name does not denote a catalogued order."""


class BadElement(UsageError):
    """Element coordinates or label do not belong to the given order."""


class BadLiteral(UsageError):
    """Text cannot be parsed as a word, string, or pair."""


class BadIndex(UsageError):
    """Approximation index outside its admissible range."""


class BadDepth(UsageError):
    """Stage or path depth outside its admissible range."""


class InvalidSegment(UsageError):
    """Final segment is not open in the given order."""


class NotIsomorphic(Exception):
    """Two orders fail to be isomorphic where the operation needs them to be.

    This is a first-class negative result, not a malfunction.
    """


class NotBoundary(ValueError):
    """Replication was asked to split a pair that is not the boundary element."""
