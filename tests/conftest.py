"""Test-session settings shared by every test module.

Property tests run under one hypothesis profile: examples are derived from
each test's own source rather than from a random seed, nothing is stored in
an example database, and there is no per-example deadline, so a run tests
the same examples every time whatever the machine's speed.
"""

from hypothesis import settings

settings.register_profile("greencorr", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("greencorr")
