"""Element budgets and shared defaults."""
from __future__ import annotations

import os

from .errors import FormatError

DEFAULT_BUDGET = 5_000_000
ENV_BUDGET = "GROWTHLAB_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument wins, then the GROWTHLAB_BUDGET env var, then the default.

    The env var must be an integer of at least 1: any other value is
    malformed input, not an exhausted budget.
    """
    if budget is not None:
        return budget
    env = os.environ.get(ENV_BUDGET)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise FormatError(f"{ENV_BUDGET} must be an integer, got {env!r}")
        if value < 1:
            raise FormatError(f"{ENV_BUDGET} must be at least 1, got {value}")
        return value
    return DEFAULT_BUDGET
