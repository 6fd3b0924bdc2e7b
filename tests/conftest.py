"""Test-suite settings: hypothesis draws the same cases on every run, and no
example fails for taking long (numpy timings vary on a shared host)."""

from hypothesis import settings

settings.register_profile("d2dsim", derandomize=True, deadline=None)
settings.load_profile("d2dsim")
