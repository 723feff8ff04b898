"""Typed errors shared across the library."""


class GrowthLabError(Exception):
    """Base class for all library errors."""


class ParentMismatch(GrowthLabError):
    """Operands belong to different parent groups."""


class BudgetExceeded(GrowthLabError):
    """An exact computation would exceed the element budget.

    Raised instead of ever truncating a result.  `run_scenario` names the
    scenario and op it aborted in `scenario` and `scenario_op`.
    """

    scenario: str | None = None
    scenario_op: str | None = None

    def __init__(self, op: str, needed, budget: int):
        super().__init__(f"{op}: needs ~{needed} elements/iterations, budget is {budget}")
        self.op = op
        self.needed = needed
        self.budget = budget

    def __reduce__(self):
        # Rebuild from the fields, not the message, so the error (and the
        # scenario it names) crosses a process pool intact.
        return type(self), (self.op, self.needed, self.budget), self.__dict__


class NotNilpotent(GrowthLabError):
    """Lower central series failed to terminate within the structural bound."""


class NotAbelian(GrowthLabError):
    """Operation requires commuting elements / an abelian parent."""


class StepTooLow(GrowthLabError):
    """Operation requires nilpotency step >= 2."""


class StepDropFailed(GrowthLabError):
    """A reduced factor failed to drop in nilpotency step; signals a bug."""


class CertificateError(GrowthLabError):
    """A claimed certificate fails its defining verification."""


class ContainmentError(GrowthLabError):
    """An exactly-verified containment or bound failed; signals a bug."""


class FormatError(GrowthLabError):
    """Malformed text serialization input."""


class RecipeError(GrowthLabError):
    """Malformed or unsupported example-recipe string."""
