"""Hypothesis profiles of the test suite.

The default profile, ``tier1``, derandomizes every property test: each
draws the same examples on every run, so the suite passes or fails the
same way each time.  ``explore`` draws afresh; select it with
``pytest --hypothesis-profile=explore``.  Each test's own
``@settings(max_examples=...)`` holds under either.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
