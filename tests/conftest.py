"""Hypothesis draws the same examples on every run, and keeps no example
database, so a defect in a property test's search space fails every run or
none."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
