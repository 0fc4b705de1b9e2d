"""Exception types, the global pattern-size limit and the integer reader
that the input parsers share."""

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


def _decimal(text):
    """The integer that ``text`` spells in ASCII decimal digits after an
    optional minus sign, else None. ``int`` alone also takes underscores,
    surrounding spaces, a plus sign and the digits of other scripts, so
    it would read ``1_0`` as 10."""
    if text.isascii() and (text.isdigit() or text[:1] == "-"
                           and text[1:].isdigit()):
        return int(text)
    return None


def ensure_pattern_size(n, limit=None):
    """Raise PatternSizeError when n vertices exceed the limit, which is
    the caller's or else ``DEFAULT_PATTERN_LIMIT``."""
    if limit is None:
        limit = DEFAULT_PATTERN_LIMIT
    if n > limit:
        raise PatternSizeError(
            f"pattern on {n} vertices exceeds the enumeration limit {limit}")
