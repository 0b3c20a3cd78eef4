"""Shared test configuration.

Hypothesis runs from a fixed seed per test with a small example budget, so
property tests give the same examples on every run and in CI.
"""

from hypothesis import settings

settings.register_profile(
    "socfem", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("socfem")
