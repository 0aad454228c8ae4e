"""Unit tests for link timing and contention."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.link import Link, LinkSpec


class TestLinkSpec:
    def test_defaults_match_paper(self):
        spec = LinkSpec()
        assert spec.latency == 1.0
        assert spec.bandwidth == 128.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0.0)


class TestSerialization:
    def test_zero_bytes_free(self):
        link = Link(LinkSpec())
        assert link.serialization_time(0) == 0.0

    def test_one_chunk_minimum(self):
        link = Link(LinkSpec(bandwidth=128.0), chunk_bytes=64)
        # Even 1 byte occupies a whole chunk.
        assert link.serialization_time(1) == link.serialization_time(64)

    def test_chunk_quantization(self):
        link = Link(LinkSpec(bandwidth=64.0), chunk_bytes=64)
        assert link.serialization_time(65) == 2 * link.serialization_time(64)

    def test_negative_size_rejected(self):
        link = Link(LinkSpec())
        with pytest.raises(ValueError):
            link.serialization_time(-1)


class TestTraversal:
    def test_uncontended_latency(self):
        link = Link(LinkSpec(latency=3.0, bandwidth=64.0), chunk_bytes=64)
        arrival = link.traverse(ready_time=10.0, size_bytes=64)
        assert arrival == pytest.approx(10.0 + 3.0 + 1.0)

    def test_contention_delays_second_message(self):
        link = Link(LinkSpec(latency=1.0, bandwidth=64.0), chunk_bytes=64)
        first = link.traverse(0.0, 640)  # busy for 10 cycles
        second = link.traverse(0.0, 64)
        assert second > first - 10  # queued behind the first
        assert link.contention_cycles == pytest.approx(10.0)

    def test_no_contention_when_spaced(self):
        link = Link(LinkSpec(latency=1.0, bandwidth=64.0), chunk_bytes=64)
        link.traverse(0.0, 64)
        link.traverse(100.0, 64)
        assert link.contention_cycles == 0.0

    def test_reset(self):
        link = Link(LinkSpec())
        link.traverse(0.0, 64)
        link.traverse(0.0, 64)
        assert link.contention_cycles > 0.0
        link.reset()
        assert link.busy_until == 0.0
        assert link.contention_cycles == 0.0
        assert link.traverse(0.0, 64) == pytest.approx(
            LinkSpec().latency + link.serialization_time(64))

    @given(
        sizes=st.lists(st.floats(min_value=1, max_value=10_000),
                       min_size=1, max_size=30),
    )
    @settings(max_examples=40)
    def test_arrivals_monotone_for_back_to_back_sends(self, sizes):
        """Messages entering at the same time leave in order."""
        link = Link(LinkSpec())
        arrivals = [link.traverse(0.0, s) for s in sizes]
        assert arrivals == sorted(arrivals)

    @given(
        ready=st.lists(st.floats(min_value=0, max_value=1000),
                       min_size=2, max_size=20),
    )
    @settings(max_examples=40)
    def test_arrival_never_before_ready_plus_latency(self, ready):
        link = Link(LinkSpec(latency=2.0))
        for t in ready:
            arrival = link.traverse(t, 64)
            assert arrival >= t + 2.0
