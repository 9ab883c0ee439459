"""Hypothesis profiles for the property suites.

CI runs ``pytest --hypothesis-profile=ci``: derandomized, so a property
suite draws the same examples on every run and cannot flake the job.  Local
runs keep Hypothesis's randomized default, which is what finds new bugs.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
