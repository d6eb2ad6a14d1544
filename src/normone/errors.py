"""Exception types shared across the package."""


class NormOneError(Exception):
    """Base class for all package errors."""


class SpecInvalid(NormOneError):
    """A group specification does not define a group."""


class SchemaError(SpecInvalid):
    """A group-spec document violates the input schema."""


class ParseError(NormOneError):
    """A group-spec document is not syntactically valid."""


class OrderBudgetExceeded(NormOneError):
    """A closure enumeration grew past the configured order bound."""


class BudgetExceeded(NormOneError):
    """A cochain-space or scan budget was exceeded.

    Carries the offending sizes so callers can report what overflowed.
    """

    def __init__(self, message, sizes=None):
        super().__init__(message)
        self.sizes = dict(sizes or {})


class GroupMismatch(NormOneError):
    """Two objects that must share an acting group do not."""


class NotPrime(NormOneError):
    pass


class NotCyclic(NormOneError):
    pass


class NotCoprime(NormOneError):
    pass


class EmptyFamily(NormOneError):
    """An operation requires a nonempty family of subgroups."""


class PreconditionFailed(NormOneError):
    pass


class HypothesisViolated(NormOneError):
    """A structural evaluator was called outside its validated hypotheses."""


class CertificateUnavailable(NormOneError):
    """No machine-checkable certificate admits the requested reduction."""
