from hypothesis import settings

# Property tests run a fixed, bounded set of examples so the suite stays
# deterministic and fast; no example database is written.
settings.register_profile(
    "deterministic", deadline=None, derandomize=True, max_examples=40, database=None
)
settings.load_profile("deterministic")
