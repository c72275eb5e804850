"""Shared test settings.

Property tests draw the same examples on every run (derandomize), so the
suite is as reproducible as the experiments it checks, and no per-example
deadline can fail a test on a slow host.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
