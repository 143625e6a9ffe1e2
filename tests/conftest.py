"""Test-suite settings: hypothesis runs a fixed, modest set of examples so
the suite is reproducible and fast, and writes no example database."""
from hypothesis import settings

settings.register_profile(
    "vanhove", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("vanhove")
