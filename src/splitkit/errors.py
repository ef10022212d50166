"""Exception types raised across the package."""


class SplitkitError(Exception):
    """Base class for every error raised by this package."""


class OrderOutOfRange(SplitkitError):
    """Graph order outside the range supported by the operation."""


class LoopEdge(SplitkitError):
    """An edge (v, v) was supplied; loops are not representable."""


class VertexOutOfRange(SplitkitError):
    """A vertex id outside 0..n-1."""


class NotAnEdge(SplitkitError):
    """The given pair is not an edge of the graph."""


class EmptySet(SplitkitError):
    """An operation requiring a nonempty vertex set received an empty one."""


class OrderTooLargeForIsomorphism(SplitkitError):
    """Isomorphism testing is capped at order 12, induced-pattern search at 8."""


class MalformedGraph6(SplitkitError):
    """The text is not a valid graph6 line."""


class UnsupportedOrder(SplitkitError):
    """graph6 order outside 1..64."""


class MalformedCorpus(SplitkitError):
    """A line of a graph6 corpus failed to parse."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class MalformedEdgeList(SplitkitError, ValueError):
    """The text is not a valid edge list ('n m' then m lines 'u v')."""


class InvalidJobs(SplitkitError, ValueError):
    """A worker count below 1."""


class UnknownTheorem(SplitkitError, ValueError):
    """A theorem id that is not in THEOREM_IDS."""


class InvalidPattern(SplitkitError, ValueError):
    """An unknown pattern tag, or a parameter the pattern does not accept."""


class OrderTooLargeForColoring(SplitkitError):
    """Exact chromatic number is capped at order 12."""


class NotSplit(SplitkitError):
    """The graph admits no partition into a clique and an independent set."""


class InvalidPartition(SplitkitError):
    """The supplied clique/independent-set partition is not valid for the graph."""


class UnclassifiablePartition(SplitkitError):
    """A valid partition whose sizes match none of the three admissible cases.

    Can never fire for a correct implementation; the verification harness
    asserts its absence over every graph it sweeps.
    """


class NotPseudoSplit(SplitkitError):
    """The graph has an induced 2K2 or C4."""


class NoInducedC4(SplitkitError):
    """Witness search requires an induced C4 in the input."""


class NoInduced2K2(SplitkitError):
    """Witness search requires an induced 2K2 in the input."""


class IsStar(SplitkitError):
    """Operation undefined on stars and on the one-vertex graph."""
