"""Protocol-parameter validation and derivation."""

import pytest

from repro.gulfstream.messages import SIZE_PER_MEMBER, membership_msg_size
from repro.gulfstream.params import GSParams


def test_defaults_validate():
    GSParams().validate()


def test_derive_replaces_fields():
    p = GSParams().derive(beacon_duration=10.0, hb_interval=0.5)
    assert p.beacon_duration == 10.0
    assert p.hb_interval == 0.5
    # original untouched (frozen)
    assert GSParams().beacon_duration == 5.0


def test_zero_beacon_duration_is_legal():
    """§2.1: 'Setting it to zero leads to the immediate formation of a
    singleton AMG for each adapter.'"""
    GSParams(beacon_duration=0.0).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beacon_duration": -1.0},
        {"beacon_interval": 0.0},
        {"hb_interval": 0.0},
        {"hb_miss_threshold": 0},
        {"hb_mode": "diagonal"},
        {"subgroup_size": 1},
        {"probe_retries": -1},
        {"hb_jitter_frac": -0.1},
        {"hb_jitter_frac": 1.0},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        GSParams(**kwargs).validate()


def test_hb_jitter_frac_satisfies_timer_contract():
    """Any valid frac yields jitter < interval, the Timer's requirement."""
    for frac in (0.0, 0.05, 0.45, 0.999):
        p = GSParams(hb_jitter_frac=frac)
        p.validate()
        assert p.hb_jitter_frac * p.hb_interval < p.hb_interval


def test_membership_msg_size_scales_with_members():
    assert membership_msg_size(10) - membership_msg_size(0) == 10 * SIZE_PER_MEMBER


def test_params_hashable_and_frozen():
    p = GSParams()
    with pytest.raises(Exception):
        p.hb_interval = 2.0  # type: ignore[misc]
