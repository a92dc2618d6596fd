"""Shared test settings.

``hypothesis`` runs derandomized and without a per-example deadline, so a
property test draws the same examples on every run and does not fail on a
slow or loaded host.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
