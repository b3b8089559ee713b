"""Property tests draw the same examples on every run: derandomized, with no
per-example deadline (the first call of a numpy routine can be slow)."""

from hypothesis import settings

settings.register_profile("uuqc", derandomize=True, deadline=None)
settings.load_profile("uuqc")
