"""Fixed hypothesis profile: every run draws the same examples."""

from hypothesis import settings

# derandomize seeds each property test from its own source, and with no
# example database a past failure cannot change which examples run next
settings.register_profile("kphoton", derandomize=True, database=None)
settings.load_profile("kphoton")
