from hypothesis import HealthCheck, settings

from mpls.matroids import MatroidOracle

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


class PublicOnly(MatroidOracle):
    """A wrapper that overrides only ``is_independent`` and counts its queries.

    Oracles keep no counts, so a test that counts queries wraps one, as a
    tracing proxy does.
    """

    def __init__(self, base):
        super().__init__(base.ground)
        self.base = base
        self.asked = 0

    def is_independent(self, subset):
        self.asked += 1
        return self.base.is_independent(subset)
