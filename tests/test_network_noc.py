"""Unit tests for NoC message timing (including per-source FIFO)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.noc import Noc
from repro.network.topology import clustered_mesh, mesh2d, ring


class TestDeliveryTime:
    def test_local_message_free(self):
        noc = Noc(mesh2d(2, 2))
        assert noc.delivery_time(0, 0, 64, 10.0) == 10.0
        assert noc.stats.messages == 0

    def test_neighbor_delivery(self):
        noc = Noc(mesh2d(2, 2), router_penalty=1.0, chunk_bytes=64)
        t = noc.delivery_time(0, 1, 64, 0.0)
        # link latency 1 + serialization 64/128 + router penalty 1
        assert t == pytest.approx(1.0 + 0.5 + 1.0)

    def test_distance_scales_latency(self):
        noc = Noc(mesh2d(4, 1))
        near = noc.delivery_time(0, 1, 64, 0.0)
        far = noc.delivery_time(0, 3, 64, 0.0)
        assert far > near

    def test_negative_size_rejected(self):
        noc = Noc(mesh2d(2, 2))
        with pytest.raises(ValueError):
            noc.delivery_time(0, 1, -1, 0.0)

    def test_stats_accumulate(self):
        noc = Noc(mesh2d(2, 2))
        noc.delivery_time(0, 1, 64, 0.0)
        noc.delivery_time(0, 3, 128, 0.0)
        assert noc.stats.messages == 2
        assert noc.stats.total_bytes == 192
        assert noc.stats.total_hops == 3

    def test_contention_accumulates(self):
        noc = Noc(mesh2d(2, 1), chunk_bytes=64)
        # Saturate the single link with big messages at t=0.
        first = noc.delivery_time(0, 1, 12_800, 0.0)
        second = noc.delivery_time(0, 1, 64, 0.0)
        assert noc.stats.contention_cycles > 0
        assert second > 0

    def test_min_latency(self):
        noc = Noc(mesh2d(4, 1), router_penalty=1.0)
        assert noc.min_latency(0, 0) == 0.0
        assert noc.min_latency(0, 3) == pytest.approx(3 * 1.0 + 3 * 1.0)

    def test_reset(self):
        noc = Noc(mesh2d(2, 2))
        big = noc.delivery_time(0, 1, 4096, 0.0)
        noc.reset()
        assert noc.stats.messages == 0
        # The reset drops the pair's FIFO floor with the link state: a
        # small message sent at the same time now arrives before the big
        # one did, unadjusted.
        small = noc.delivery_time(0, 1, 8, 0.0)
        assert small < big
        assert noc.stats.fifo_adjustments == 0


class TestPerSourceFifo:
    def test_same_stream_never_regresses(self):
        """Messages of one (src, dst) stream arrive in send order."""
        noc = Noc(mesh2d(4, 4))
        # A big slow message, then a small fast one: the small one must not
        # overtake (paper, Section II-B).
        t1 = noc.delivery_time(0, 15, 100_000, 0.0)
        t2 = noc.delivery_time(0, 15, 8, 0.1)
        assert t2 >= t1

    def test_different_sources_may_reorder(self):
        noc = Noc(mesh2d(4, 4))
        t1 = noc.delivery_time(0, 5, 100_000, 0.0)
        t2 = noc.delivery_time(6, 5, 8, 0.1)
        assert t2 < t1  # cross-source overtaking is allowed

    @given(
        sends=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000),  # depart time
                st.floats(min_value=1, max_value=5000),  # size
            ),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_fifo_property_random_streams(self, sends):
        noc = Noc(mesh2d(3, 3))
        # Sort departs: a single sequential sender has monotone send times.
        sends = sorted(sends)
        arrivals = [noc.delivery_time(0, 8, size, t) for t, size in sends]
        assert arrivals == sorted(arrivals)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_arrival_after_departure(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        noc = Noc(ring(8))
        for _ in range(20):
            src, dst = int(rng.integers(8)), int(rng.integers(8))
            depart = float(rng.random() * 100)
            arrival = noc.delivery_time(src, dst, 64, depart)
            if src != dst:
                assert arrival > depart
            else:
                assert arrival == depart

