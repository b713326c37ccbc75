"""Shared test settings.

The hypothesis profile below is loaded for every test run: with no
per-example deadline a loaded machine cannot fail a property test on time,
and with derandomize every run draws the same examples.
"""
from hypothesis import settings

settings.register_profile("tailscope", deadline=None, derandomize=True)
settings.load_profile("tailscope")
