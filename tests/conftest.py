"""Test-suite configuration: Hypothesis draws the same examples every run.

The property tests sample parameters, so a random seed or a replayed
example database would let a run pass or fail by chance.  This profile
derives every example from the test itself and keeps no database.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
