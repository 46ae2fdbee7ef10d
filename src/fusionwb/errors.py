"""Exception types shared by all workbench modules."""


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class NoIdentity(WorkbenchError):
    """Row/column 0 of a multiplication table is not the identity."""


class NonAssociative(WorkbenchError):
    """A multiplication table violates associativity; carries the triple."""

    def __init__(self, triple):
        self.triple = tuple(triple)
        a, b, c = self.triple
        super().__init__(f"associativity fails at triple ({a}, {b}, {c})")


class NotClosed(WorkbenchError):
    """A table entry escapes the element range, or a row/column repeats."""


class OrderBoundExceeded(WorkbenchError):
    """A group or generated closure is larger than the supported bound."""


class NotSylow(WorkbenchError):
    """The given subgroup does not have full p-power order in its parent."""


class MismatchedBase(WorkbenchError):
    """Two fusion systems live on different p-groups or primes."""


class MalformedWord(WorkbenchError):
    """A word refers to letters that do not exist in its presentation."""


class RadiusBoundExceeded(WorkbenchError):
    """Ball enumeration requested beyond the supported radius."""


class DegreeBoundExceeded(WorkbenchError):
    """A cohomological degree above the configured cap was requested."""


class NotACategory(WorkbenchError):
    """Maps the workbench takes as closed are not: closing them adds a map."""


class IncompatibleFamily(WorkbenchError):
    """Components of a family disagree under some restriction map."""


class CorpusMissing(WorkbenchError):
    """The bundled corpus files cannot be found."""


class UsageError(WorkbenchError):
    """Command line input does not match any documented verb."""
