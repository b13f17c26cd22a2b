"""Property-based tests for token buckets, virtual queues, and RNG streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.vq import VirtualQueue
from repro.traffic.token_bucket import TokenBucket

arrival_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.1, allow_nan=False),  # gap
        st.integers(min_value=1, max_value=1500),                   # size
    ),
    min_size=1, max_size=300,
)


@given(arrival_streams,
       st.floats(min_value=1e3, max_value=1e7, allow_nan=False),
       st.integers(min_value=100, max_value=100000))
def test_token_bucket_conformance_bound(stream, rate_bps, bucket_bytes):
    """Accepted volume over [0, t] never exceeds b + r*t."""
    tb = TokenBucket(rate_bps, bucket_bytes)
    accepted = 0
    now = 0.0
    for gap, size in stream:
        now += gap
        if tb.conforms(size, now):
            accepted += size
        assert accepted <= bucket_bytes + (rate_bps / 8) * now + 1e-6


@given(arrival_streams)
def test_token_bucket_tokens_never_negative_or_overfull(stream):
    tb = TokenBucket(8e4, 5000)
    now = 0.0
    for gap, size in stream:
        now += gap
        tb.conforms(size, now)
        assert -1e-9 <= tb.tokens <= 5000 + 1e-9


@given(arrival_streams)
def test_virtual_queue_backlog_bounded_by_buffer(stream):
    vq = VirtualQueue(rate_bps=1e6, buffer_bytes=10000, fraction=0.9)
    now = 0.0
    for gap, size in stream:
        now += gap
        vq.observe(size, now)
        assert 0.0 <= vq.backlog_bytes <= 10000


@given(arrival_streams)
def test_virtual_queue_marks_monotone_in_rate_fraction(stream):
    """A slower virtual queue can only mark more, never less."""
    fast = VirtualQueue(rate_bps=1e6, buffer_bytes=5000, fraction=0.9)
    slow = VirtualQueue(rate_bps=1e6, buffer_bytes=5000, fraction=0.5)
    now = 0.0
    for gap, size in stream:
        now += gap
        fast.observe(size, now)
        slow.observe(size, now)
    assert slow.marks >= fast.marks


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30)
def test_rng_streams_deterministic_for_any_seed(seed):
    from repro.sim.rng import RandomStreams

    a = RandomStreams(seed).get("x").random(3)
    b = RandomStreams(seed).get("x").random(3)
    assert list(a) == list(b)
