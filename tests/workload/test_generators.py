"""Statistical verification of the request generators.

The traffic plane's SLO numbers mean nothing if the generated workload is
not what it claims to be, so this suite tests the *distributions*, not
just the plumbing: a Kolmogorov–Smirnov test on the Poisson interarrivals,
a log–log rank–frequency regression on the Zipf popularity, and thinning
proportionality against the rate profile. All of it is seed-deterministic
(fixed generators from :func:`default_streams`), so the acceptance bands
are exact reruns, not flaky statistics.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.workload.generators import (
    DOMAIN_ALPHA,
    STREAM_NAMES,
    Arrival,
    RequestStream,
    TruncatedZipf,
    default_streams,
)
from repro.workload.profiles import DiurnalProfile, DomainLoadModel
from repro.workload.traffic import _resolve_profile, run_traffic_case

from tests.workload.test_traffic import QUICK


def take(stream, n):
    return list(itertools.islice(iter(stream), n))


# ----------------------------------------------------------------------
# TruncatedZipf
# ----------------------------------------------------------------------
def test_zipf_pmf_is_a_normalized_decreasing_law():
    z = TruncatedZipf(1000, alpha=0.9)
    pmf = [z.pmf(r) for r in range(1, 1001)]
    assert sum(pmf) == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(pmf, pmf[1:]))
    # the exact power law, not merely "decreasing"
    assert z.pmf(1) / z.pmf(2) == pytest.approx(2.0**0.9)


def test_zipf_draws_cover_the_range_and_only_the_range():
    rng = np.random.default_rng(3)
    z = TruncatedZipf(50, alpha=0.7)
    ranks = z.draws(20_000, rng)
    assert ranks.min() >= 1 and ranks.max() <= 50
    assert len(np.unique(ranks)) == 50  # finite catalogue fully exercised


def test_zipf_rank_frequency_slope_matches_alpha():
    """Empirical log(frequency) vs log(rank) regresses to slope ≈ -alpha."""
    alpha = 0.8
    rng = np.random.default_rng(11)
    z = TruncatedZipf(500, alpha=alpha)
    ranks = z.draws(400_000, rng)
    counts = np.bincount(ranks, minlength=501)[1:]
    top = np.arange(1, 51)  # head of the law: counts large, truncation far
    slope, _, rvalue, _, _ = stats.linregress(
        np.log(top), np.log(counts[:50])
    )
    assert slope == pytest.approx(-alpha, abs=0.05)
    assert rvalue**2 > 0.99


def _scalar_rank(zipf, u):
    """One Zipf rank for one uniform: the scalar inverse-CDF lookup."""
    return int(np.searchsorted(zipf._cdf, u, side="right")) + 1


def test_zipf_scalar_draw_agrees_with_vectorized_distribution():
    z = TruncatedZipf(20, alpha=0.9)
    uniforms = np.random.default_rng(5).random(50_000)
    scalar = np.array([_scalar_rank(z, float(u)) for u in uniforms])
    assert np.array_equal(scalar, z.ranks(uniforms))
    expected = np.array([z.pmf(r) for r in range(1, 21)])
    observed = np.bincount(scalar, minlength=21)[1:] / len(scalar)
    assert np.abs(observed - expected).max() < 0.01


def test_zipf_validation():
    with pytest.raises(ValueError):
        TruncatedZipf(0)
    with pytest.raises(ValueError):
        TruncatedZipf(10, alpha=-0.1)


# ----------------------------------------------------------------------
# RequestStream — arrival process
# ----------------------------------------------------------------------
def test_interarrivals_are_exponential_ks():
    """Flat profile at the peak → homogeneous Poisson: KS vs Exp(rate)."""
    rate = 50.0
    ev = take(RequestStream(["acme"], base_rate=rate, rngs=default_streams(1)),
              5000)
    times = np.array([e.time for e in ev])
    gaps = np.diff(times)
    d, p = stats.kstest(gaps, "expon", args=(0, 1.0 / rate))
    assert p > 0.01, f"KS rejected exponential interarrivals (D={d:.4f}, p={p:.4f})"
    # and the realized rate is the nominal one
    assert len(times) / times[-1] == pytest.approx(rate, rel=0.05)


def test_interarrival_count_is_poisson_dispersed():
    """Counts per unit window: variance ≈ mean (index of dispersion ≈ 1)."""
    ev = take(RequestStream(["acme"], base_rate=40.0, rngs=default_streams(2)),
              20_000)
    times = np.array([e.time for e in ev])
    counts = np.bincount(times.astype(int))[: int(times[-1])]
    dispersion = counts.var() / counts.mean()
    # ~500 windows: the index's sampling sd is ~sqrt(2/500) ≈ 0.063
    assert 0.8 < dispersion < 1.2


def test_thinning_tracks_the_profile():
    """A 4:1 two-level profile yields a 4:1 arrival-count ratio."""
    def profile(domain, t):
        return 1.0 if t % 20.0 < 10.0 else 0.25

    stream = RequestStream(
        ["acme"], base_rate=60.0, duration=200.0, profile=profile,
        peak_factor=1.0, rngs=default_streams(3),
    )
    times = np.array([e.time for e in stream])
    high = np.sum(times % 20.0 < 10.0)
    low = len(times) - high
    assert high / low == pytest.approx(4.0, rel=0.15)


def test_diurnal_modulation_shifts_mass_into_the_peak():
    prof = DiurnalProfile(period=100.0, trough=0.2)
    stream = RequestStream(
        ["acme"], base_rate=80.0, duration=300.0, profile=prof,
        peak_factor=prof.peak, rngs=default_streams(4),
    )
    times = np.array([e.time for e in stream])
    phase = times % 100.0
    # peak is at half-period, trough at 0/period
    peak_mass = np.sum((phase > 35.0) & (phase < 65.0))
    trough_mass = np.sum((phase < 15.0) | (phase > 85.0))
    expected = (prof("acme", 50.0)) / (prof("acme", 5.0))
    assert peak_mass / trough_mass == pytest.approx(expected, rel=0.25)


def test_profile_exceeding_peak_factor_raises():
    stream = RequestStream(
        ["acme"], base_rate=10.0, profile=lambda d, t: 2.0,
        peak_factor=1.0, rngs=default_streams(5),
    )
    with pytest.raises(ValueError, match="peak_factor"):
        take(stream, 10)


# ----------------------------------------------------------------------
# RequestStream — popularity and bounds
# ----------------------------------------------------------------------
def test_domain_shares_follow_zipf_weights():
    domains = ["a", "b", "c", "d"]
    ev = take(RequestStream(domains, base_rate=100.0, rngs=default_streams(6)), 40_000)
    z = TruncatedZipf(4, alpha=DOMAIN_ALPHA)
    observed = {d: 0 for d in domains}
    for e in ev:
        observed[e.domain] += 1
    for rank, d in enumerate(domains, start=1):
        assert observed[d] / len(ev) == pytest.approx(z.pmf(rank), abs=0.01)


def test_duration_bounds_the_stream():
    ev = list(RequestStream(["acme"], base_rate=30.0, duration=10.0,
                            rngs=default_streams(8)))
    assert ev, "empty stream"
    assert all(e.time < 10.0 for e in ev)
    assert len(ev) == pytest.approx(300, rel=0.2)


def test_stream_validation():
    with pytest.raises(ValueError):
        RequestStream([], base_rate=10.0)
    with pytest.raises(ValueError):
        RequestStream(["a"], base_rate=0.0)
    with pytest.raises(ValueError):
        RequestStream(["a"], base_rate=10.0, peak_factor=0.0)
    rngs = default_streams(0)
    del rngs["domains"]
    with pytest.raises(ValueError, match="domains"):
        RequestStream(["a"], base_rate=10.0, rngs=rngs)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_same_seed_same_stream(seed):
    a = take(RequestStream(["a", "b"], base_rate=50.0, seed=seed), 300)
    b = take(RequestStream(["a", "b"], base_rate=50.0, seed=seed), 300)
    assert a == b


def test_different_seeds_differ():
    a = take(RequestStream(["a"], base_rate=50.0, seed=0), 100)
    b = take(RequestStream(["a"], base_rate=50.0, seed=1), 100)
    assert a != b


def test_default_streams_are_independent_per_purpose():
    s = default_streams(42)
    assert set(s) == {"arrivals", "domains"}
    draws = {name: rng.random(8).tolist() for name, rng in s.items()}
    assert draws["arrivals"] != draws["domains"]
    # and stable: the same seed rebuilds the same two bit streams
    again = {n: r.random(8).tolist() for n, r in default_streams(42).items()}
    assert draws == again


# ----------------------------------------------------------------------
# exactness: the block-evaluated stream ≡ the scalar reference
# ----------------------------------------------------------------------
def _reference_stream(domains, base_rate, *, rngs, duration=None, profile=None,
                      peak_factor=None):
    """The one-candidate-at-a-time generator, as the stream was first written.

    Every candidate draws one exponential and (unless it ends the stream)
    one domain uniform from 4096-draw buffers and calls the profile once
    per domain. The only edit is ``total``: an explicit left-to-right
    loop, which is what ``sum`` does on CPython 3.11 and what the block
    generator does on every version (3.12's ``sum`` compensates).
    """
    profile = profile if profile is not None else (lambda d, t: 1.0)
    peak = base_rate * (1.0 if peak_factor is None else peak_factor)
    zipf = TruncatedZipf(len(domains), DOMAIN_ALPHA)
    weights = [zipf.pmf(r) for r in range(1, len(domains) + 1)]

    def buffered(draw):
        buf, i = draw(), 0
        while True:
            if i >= len(buf):
                buf, i = draw(), 0
            yield float(buf[i])
            i += 1

    exps = buffered(lambda: rngs["arrivals"].exponential(1.0, 4096))
    domain_rng = rngs["domains"]
    first = domain_rng.random(4096)  # drawn when the stream is built
    uniforms = buffered(lambda: domain_rng.random(4096))
    uniforms = itertools.chain((float(x) for x in first), uniforms)

    def events():
        t = 0.0
        while True:
            t += next(exps) / peak
            if duration is not None and t >= duration:
                return
            lam = [w * max(0.0, profile(d, t)) for d, w in zip(domains, weights)]
            total = 0.0
            for value in lam:
                total += value
            u = next(uniforms) * peak
            offered = base_rate * total
            if offered > peak + 1e-9:
                raise ValueError(
                    f"profile exceeds the declared peak_factor at t={t:.3f} "
                    f"(rate {offered:.3f} > peak {peak:.3f})"
                )
            if u >= offered:
                continue
            acc = 0.0
            domain = domains[-1]
            for d, value in zip(domains, lam):
                acc += base_rate * value
                if u < acc:
                    domain = d
                    break
            yield Arrival(t, domain)

    return events()


def _rngs(seed, shared):
    """Two generators for ``seed``, or one serving both purposes."""
    if shared:
        rng = np.random.default_rng(seed)
        return {name: rng for name in STREAM_NAMES}
    return default_streams(seed)


def _record(events, limit=None):
    """``(time as float.hex, domain)`` per event, then the error message
    the stream ended with (``None`` for a clean end)."""
    out = []
    try:
        for ev in itertools.islice(events, limit):
            assert type(ev) is Arrival and type(ev.time) is float
            out.append((ev.time.hex(), ev.domain))
    except ValueError as exc:
        return out, str(exc)
    return out, None


def _assert_block_matches_reference(domains, base_rate, seed=0, limit=None, shared=False,
                                    **kwargs):
    block = _record(iter(RequestStream(domains, base_rate, rngs=_rngs(seed, shared),
                                       **kwargs)), limit)
    reference = _record(_reference_stream(domains, base_rate, rngs=_rngs(seed, shared),
                                          **kwargs), limit)
    assert block == reference
    return block


E2E_NAMES = ["alpha", "bravo", "charlie", "delta"]


@pytest.mark.parametrize("shape", ["diurnal", "flat", "flash"])
def test_block_stream_is_the_scalar_stream_for_every_traffic_shape(shape):
    """The e2e ``traffic`` case's stream (the staggered diurnal one, and
    its flat and flash siblings), event for event and bit for bit."""
    profile, peak_factor = _resolve_profile(shape, E2E_NAMES, 60.0)
    events, error = _assert_block_matches_reference(
        E2E_NAMES, 600.0, seed=1, duration=60.0, profile=profile, peak_factor=peak_factor,
    )
    assert error is None and len(events) > 2 * 4096


def test_block_stream_is_the_scalar_stream_for_a_load_model():
    model = DomainLoadModel(["a", "b", "c"], base=40.0, amplitude=35.0, period=30.0,
                            spikes={"b": (12.0, 6.0, 60.0)})
    events, error = _assert_block_matches_reference(
        model.domains, 30.0, seed=2, duration=90.0,
        profile=model.as_profile(), peak_factor=model.peak_factor,
    )
    assert error is None and events


def test_block_stream_is_the_scalar_stream_for_negative_and_nan_profiles():
    """The clamp sends a negative value and NaN to zero, as ``max(0.0, v)`` did."""
    def profile(domain, t):
        k = int(t * 7.0)
        if k % 5 == 0:
            return math.nan
        return math.sin(t + len(domain)) if k % 3 else -0.0

    events, error = _assert_block_matches_reference(
        ["a", "bb", "ccc"], 80.0, seed=3, duration=120.0, profile=profile,
    )
    assert error is None and events


def test_block_stream_is_the_scalar_stream_for_the_default_profile():
    events, error = _assert_block_matches_reference(
        ["a", "b", "c"], 50.0, seed=4, duration=200.0,
    )
    assert error is None and len(events) > 4096


def test_unbounded_block_stream_reads_through_block_boundaries():
    """``duration=None``: > 3 candidate blocks."""
    prof = DiurnalProfile(period=50.0, trough=0.5, domains=["x", "y"], stagger=True)
    events, error = _assert_block_matches_reference(
        ["x", "y"], 200.0, seed=5, limit=3 * 4096 + 1500, profile=prof,
    )
    assert error is None and len(events) == 3 * 4096 + 1500


@pytest.mark.parametrize("crossing", [30.0, 50.0])
def test_peak_violation_raises_at_the_same_candidate(crossing):
    """Same events before the raise (in the first block and in a later
    one), then the same message, with two generators or one shared by
    both purposes."""
    for shared in (False, True):
        events, error = _assert_block_matches_reference(
            ["a", "b"], 100.0, seed=6, duration=80.0, shared=shared,
            profile=lambda d, t: 2.0 if t > crossing else 0.5,
        )
        assert error is not None and "peak_factor" in error
        assert events and float.fromhex(events[-1][0]) <= crossing


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_domains=st.integers(min_value=1, max_value=5),
    rate=st.sampled_from([7.0, 45.0, 130.0]),
    shared=st.booleans(),
)
def test_block_stream_is_the_scalar_stream_over_seeds(seed, n_domains, rate, shared):
    """With two generators or one shared by both purposes."""
    names = [f"d{k}" for k in range(n_domains)]
    prof = DiurnalProfile(period=17.0, trough=0.1, domains=names, stagger=True)
    _assert_block_matches_reference(
        names, rate, seed=seed, duration=5000.0 / rate, shared=shared,
        profile=prof, peak_factor=prof.peak,
    )


def test_an_arrival_is_a_time_domain_pair():
    first = next(iter(RequestStream(["acme"], base_rate=10.0, seed=1)))
    assert type(first) is Arrival
    assert first == (first.time, "acme") and first.time > 0.0


def test_traffic_rows_do_not_depend_on_the_user_population():
    """``n_users`` is accepted and ignored: the farm routes by domain alone."""
    few = run_traffic_case(case=0, seed=7, **{**QUICK, "n_users": 10})
    many = run_traffic_case(case=0, seed=7, **{**QUICK, "n_users": 1_000_000})
    assert few["requests"]["issued"] > 500
    assert few == many
