"""Deterministic retry backoff: exponential growth, cap and hashed jitter.

The job service re-queues a failed attempt after
:func:`repro.service.queue.backoff_delay`; the jitter is keyed by the
first eight hex digits of the spec fingerprint, so ``_fp(i)`` below
stands for "spec number ``i``".
"""

from repro.service.queue import backoff_delay


def _fp(key: int) -> str:
    return f"{key:08x}" + "0" * 56


class TestDeterministicBackoff:
    def test_exponential_growth_and_cap(self):
        base = backoff_delay(_fp(0), 1, 0.1, 5.0)
        doubled = backoff_delay(_fp(0), 2, 0.1, 5.0)
        assert 0.1 <= base <= 0.15  # base + up to 50% jitter
        assert 0.2 <= doubled <= 0.3
        capped = backoff_delay(_fp(0), 30, 0.1, 5.0)
        assert capped <= 7.5  # cap + max jitter

    def test_jitter_is_reproducible(self):
        assert backoff_delay(_fp(7), 3, 0.1, 5.0) == backoff_delay(_fp(7), 3, 0.1, 5.0)

    def test_jitter_decorrelates_specs(self):
        delays = {backoff_delay(_fp(i), 1, 0.1, 5.0) for i in range(20)}
        assert len(delays) > 10
