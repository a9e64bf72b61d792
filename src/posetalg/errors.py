"""Exception types shared across the package."""


class PosetAlgError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateName(PosetAlgError):
    pass


class UnknownElement(PosetAlgError):
    pass


class CycleError(PosetAlgError):
    """Antisymmetry violated; carries a witnessing pair of names."""

    def __init__(self, a, b):
        super().__init__(f"cycle: {a!r} <= {b!r} and {b!r} <= {a!r}")
        self.witness = (a, b)


class NotAnOrder(PosetAlgError):
    """A relation matrix that is not reflexive or not transitive."""


class SizeLimit(PosetAlgError):
    pass


class EnumerationOverflow(PosetAlgError):
    pass


class ClosureOverflow(PosetAlgError):
    pass


class PosetMismatch(PosetAlgError):
    pass


class CountMismatch(PosetAlgError):
    """An element's trace count differs from the number of blocks into which
    the oracle's points fall on its support; carries the witness dict
    (support names, count, blocks)."""

    def __init__(self, witness):
        super().__init__(
            f"{witness['count']} traces on {witness['support']!r},"
            f" but the points fall into {witness['blocks']} blocks"
        )
        self.witness = witness


class BadArity(PosetAlgError):
    pass


class NotOrderPreserving(PosetAlgError):
    """Carries the witnessing pair (p, q) with p <= q but f(p) !<= f(q)."""

    def __init__(self, p, q):
        super().__init__(f"not order-preserving at {p!r} <= {q!r}")
        self.witness = (p, q)


class NotAnEmbedding(PosetAlgError):
    pass


class NotDirected(PosetAlgError):
    pass


class NotCofinal(PosetAlgError):
    pass


class PremiseFailed(PosetAlgError):
    pass


class ParseError(PosetAlgError):
    pass
