"""The test suite's one Hypothesis profile: derandomized, without an example database or a deadline,
and with a bounded number of examples, so every run draws the same cases in bounded time."""

from hypothesis import settings

settings.register_profile("qubounds", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("qubounds")
