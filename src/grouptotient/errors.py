"""Exception hierarchy for group construction, enumeration, and file ingestion."""


class GroupError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(GroupError, ValueError):
    """A constructor or closed-form formula received parameters outside its domain."""


class OrderOverflowError(GroupError):
    """A construction would exceed the configured maximum group order."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds the configured cap {cap}")
        self.order = order
        self.cap = cap


class MixedPrimesError(GroupError, ValueError):
    """An abelian type restricted to a single prime contained several primes."""


class LatticeOverflowError(GroupError):
    """Subgroup enumeration exceeded the configured subgroup-count cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"subgroup count exceeded the configured cap {cap} (at {count})")
        self.count = count
        self.cap = cap


class NotNormalError(GroupError):
    """A subgroup expected to be normal is not."""


class NotPrimePowerError(GroupError, ValueError):
    """A group expected to have prime-power order does not."""


class UnknownSuiteError(GroupError, ValueError):
    """An unrecognized verification suite id."""


class RangeTooLargeError(GroupError):
    """Suite parameters would exceed the configured order or subgroup caps."""


class ParseError(GroupError, ValueError):
    """A catalogue file failed to parse.

    Carries the 1-based line number and, where meaningful, the 1-based
    column (token index) of the offending input.
    """

    def __init__(self, message: str, line: int, col: int | None = None):
        where = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


class NotAGroupError(GroupError, ValueError):
    """An ingested table is a quasigroup at best: a group axiom failed.

    `axiom` names the failed axiom; `witness` is a tuple of element
    indices exhibiting the failure (for associativity, the triple
    (a, b, c) with (a*b)*c != a*(b*c)).
    """

    def __init__(self, axiom: str, witness: tuple):
        super().__init__(f"{axiom} failed at witness {witness}")
        self.axiom = axiom
        self.witness = witness


class IdentityNotZeroError(GroupError, ValueError):
    """Row/column 0 of an ingested Cayley table is not an identity element."""


class NotAPermutationError(GroupError, ValueError):
    """A generator line is not a permutation of 0..d-1."""
