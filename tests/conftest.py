"""Shared test settings.

Property tests are derandomized and carry no per-example deadline, so a
slow or busy host cannot fail them. Derandomized examples are a function
of the test and of the literals Hypothesis collects from the non-test
modules loaded in the process (here the `mixcast` modules, from their
source). So the same invocation draws the same examples every time, but
a different selection of test files (`mixcast.cli`, for example, is only
loaded once a test module that imports it is collected) or an edited
literal in `src/` can draw different ones. Hypothesis has no setting
that turns this collection off. Reproduce a property failure with the
invocation that showed it, or pin the printed falsifying input with
`@example`.
"""
from hypothesis import settings

settings.register_profile("mixcast", derandomize=True, deadline=None)
settings.load_profile("mixcast")
