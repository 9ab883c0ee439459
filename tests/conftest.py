"""Hypothesis profiles for the property suites.

CI runs ``pytest --hypothesis-profile=ci``: derandomized, so a property
suite draws the same examples on every run and cannot flake the job.  Local
runs keep Hypothesis's randomized default, which is what finds new bugs.

``--hypothesis-profile=deep`` (CI's ``determinism`` job) is the same with
more examples, for the suites that size themselves from the profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.register_profile("deep", derandomize=True, max_examples=1500)
