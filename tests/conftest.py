"""Shared test settings: hypothesis runs derandomized and without a
per-example deadline, so property tests are reproducible and slow hosts
cannot fail them on timing."""

from hypothesis import settings

settings.register_profile("oaasim", derandomize=True, deadline=None)
settings.load_profile("oaasim")
