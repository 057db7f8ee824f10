"""The errors that every layer may raise for an input it declines (exit 3
at the CLI); they live below every other module so that each can raise
them."""

from __future__ import annotations

__all__ = ["FragmentError", "BudgetExceeded"]


class FragmentError(ValueError):
    """The input lies outside the fragment a procedure decides."""


class BudgetExceeded(FragmentError):
    """Deciding the input would take more work than a fixed bound allows."""
