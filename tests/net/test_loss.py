"""Link-quality models: loss probabilities and latency bounds."""

import numpy as np
import pytest

from repro.net.loss import LinkQuality, PerfectLink


def test_perfect_link_never_drops():
    q = PerfectLink(latency=0.001)
    rng = np.random.default_rng(0)
    for _ in range(100):
        delivered, lat = q.sample(rng)
        assert delivered and lat == 0.001


def test_latency_within_jitter_bounds():
    q = LinkQuality(latency=0.01, jitter=0.002)
    rng = np.random.default_rng(1)
    for _ in range(200):
        delivered, lat = q.sample(rng)
        assert delivered
        assert 0.008 <= lat <= 0.012


def test_loss_rate_close_to_configured():
    q = LinkQuality(loss_probability=0.3, latency=0.001, jitter=0.0)
    rng = np.random.default_rng(2)
    losses = sum(1 for _ in range(5000) if not q.sample(rng)[0])
    assert 0.25 < losses / 5000 < 0.35


def test_latency_never_zero():
    q = LinkQuality(latency=LinkQuality.MIN_LATENCY, jitter=LinkQuality.MIN_LATENCY)
    rng = np.random.default_rng(3)
    for _ in range(100):
        _, lat = q.sample(rng)
        assert lat >= LinkQuality.MIN_LATENCY


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_probability": -0.1},
        {"loss_probability": 1.1},
        {"latency": 0.0},
        {"latency": 0.001, "jitter": 0.002},
        {"jitter": -0.1},
    ],
)
def test_invalid_quality_params_rejected(kwargs):
    with pytest.raises(ValueError):
        LinkQuality(**kwargs)


@pytest.mark.parametrize(
    "quality, expected",
    [
        (PerfectLink(), 0.0005),
        (PerfectLink(latency=0.002), 0.002),
        (PerfectLink(latency=1e-9), LinkQuality.MIN_LATENCY),
        (LinkQuality(latency=0.001, jitter=0.0), 0.001),
        (LinkQuality(latency=0.001, jitter=0.0002), None),
        (LinkQuality(loss_probability=0.1, latency=0.001, jitter=0.0), None),
    ],
)
def test_fixed_latency_is_set_only_when_the_link_can_neither_drop_nor_jitter(quality, expected):
    assert quality.fixed_latency == expected
    if expected is not None:
        # ... and then it is what every sample would have said, RNG untouched
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert quality.sample(rng) == (True, expected)
        assert quality.sample_batch(rng, 5) == (None, expected)
        assert rng.bit_generator.state == state
