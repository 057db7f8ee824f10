"""The errors that every layer may raise for an input it declines (exit 3
at the CLI), the default bound on that work and the default seed of the
sampled procedures; they live below every other module so that each can
read them, and the CLI reads the defaults without executing any layer."""

from __future__ import annotations

__all__ = ["FragmentError", "BudgetExceeded", "DEFAULT_CELL_BUDGET", "DEFAULT_SEED"]

DEFAULT_CELL_BUDGET = 1000  # cell tests per canonical form, by point or by LP

DEFAULT_SEED = 20260823  # the sampled check's and the property suites' seed


class FragmentError(ValueError):
    """The input lies outside the fragment a procedure decides."""


class BudgetExceeded(FragmentError):
    """Deciding the input would take more work than a fixed bound allows."""
