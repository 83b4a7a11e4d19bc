"""Shared test settings.

Property tests draw the same examples on every run (derandomize) and
carry no per-example deadline, so the suite neither varies between runs
nor fails on a slow or busy host.
"""
from hypothesis import settings

settings.register_profile("mixcast", derandomize=True, deadline=None)
settings.load_profile("mixcast")
