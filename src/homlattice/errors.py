"""Exception types and the global pattern-size limit."""

DEFAULT_PATTERN_LIMIT = 12


class HomlatticeError(Exception):
    """Base class for errors raised by this package."""


class PatternSizeError(HomlatticeError):
    """A pattern exceeds the size limit for exhaustive enumeration."""


class BudgetError(HomlatticeError):
    """A brute-force enumeration would exceed its operation budget."""


class PartitionError(HomlatticeError):
    """A vertex partition is malformed or does not match the graph."""


class ParseError(HomlatticeError):
    """An input file (graph, matrix, or manifest) is malformed."""


class HostError(HomlatticeError):
    """A host graph violates a precondition, e.g. it carries selfloops."""


class TreeError(HomlatticeError):
    """A graph required to be a tree is not one."""


def ensure_pattern_size(n, limit=None):
    """Raise PatternSizeError when n vertices exceed the limit, which is
    the caller's or else ``DEFAULT_PATTERN_LIMIT``."""
    if limit is None:
        limit = DEFAULT_PATTERN_LIMIT
    if n > limit:
        raise PatternSizeError(
            f"pattern on {n} vertices exceeds the enumeration limit {limit}")
