"""Exclusive click probabilities with photon parity and dark counts.

Oracle values come from exhaustive enumeration over per-detector
outcomes (no-click / odd click / even click), truncating Poisson sums
at n=80.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualqss.detectors import (
    ClickParity,
    Detector,
    SystemParams,
    click_prob,
    exclusive_pattern_prob,
    exclusive_single_click,
)
from dualqss.optics import ModeIntensities

# intensities per detector D1H, D2H, D1V, D2V used by the frozen oracles
INTS = ModeIntensities(0.3, 0.0, 0.7, 0.1)
PD = 1e-3


def test_click_prob_frozen():
    assert click_prob(0.7, 1e-3) == pytest.approx(0.5039112815123818, rel=1e-12)
    assert click_prob(0.0, 0.0) == 0.0
    assert click_prob(0.0, 1e-3) == pytest.approx(1e-3, rel=1e-12)


def test_exclusive_single_click_frozen():
    odd = exclusive_single_click(Detector.D1V, ClickParity.ODD, INTS, PD)
    even = exclusive_single_click(Detector.D1V, ClickParity.EVEN, INTS, PD)
    any_parity = exclusive_single_click(Detector.D1V, None, INTS, PD)
    assert odd == pytest.approx(0.2517538044495315, rel=1e-12)
    assert even == pytest.approx(0.08501569647918102, rel=1e-12)
    assert any_parity == pytest.approx(0.33676950092871255, rel=1e-12)


def test_exclusive_double_click_frozen():
    p = exclusive_pattern_prob(
        (Detector.D1H, Detector.D2V),
        INTS,
        PD,
        parities=(ClickParity.ODD, ClickParity.EVEN),
    )
    assert p == pytest.approx(0.0006074018712909553, rel=1e-15)


def test_single_click_parity_sum():
    for det in Detector:
        odd = exclusive_single_click(det, ClickParity.ODD, INTS, PD)
        even = exclusive_single_click(det, ClickParity.EVEN, INTS, PD)
        any_parity = exclusive_single_click(det, None, INTS, PD)
        assert odd + even == pytest.approx(any_parity, abs=1e-15)


def test_pattern_duplicate_detectors():
    # listed twice with one class it counts once; with two it is an error
    twice = exclusive_pattern_prob((Detector.D1H, Detector.D1H), INTS, PD,
                                   parities=(ClickParity.ODD, ClickParity.ODD))
    assert twice == exclusive_single_click(Detector.D1H, ClickParity.ODD, INTS, PD)
    with pytest.raises(ValueError, match="conflicting parities"):
        exclusive_pattern_prob(
            (Detector.D1H, Detector.D1H),
            INTS,
            PD,
            parities=(ClickParity.ODD, ClickParity.EVEN),
        )
    with pytest.raises(ValueError, match="conflicting parities"):
        exclusive_pattern_prob((Detector.D2V, Detector.D2V), INTS, PD, (None, ClickParity.ODD))


def test_pattern_needs_one_parity_per_detector():
    with pytest.raises(ValueError, match="one parity per clicked detector"):
        exclusive_pattern_prob((Detector.D1H, Detector.D2V), INTS, PD, (ClickParity.ODD,))
    # a parity class is a ClickParity member or None, not its value
    with pytest.raises(ValueError, match="ClickParity members or None"):
        exclusive_pattern_prob((Detector.D1H,), INTS, PD, ("odd",))


ints_st = st.builds(
    ModeIntensities,
    *(st.floats(min_value=0.0, max_value=3.0, allow_nan=False) for _ in range(4))
)


@settings(max_examples=60)
@given(ints_st, st.floats(min_value=0.0, max_value=0.2, allow_nan=False))
def test_pattern_completeness(ints, p_d):
    # the 16 exclusive click patterns partition the outcome space
    total = 0.0
    for r in range(5):
        for subset in itertools.combinations(Detector, r):
            total += exclusive_pattern_prob(subset, ints, p_d)
    assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60)
@given(ints_st, st.floats(min_value=1e-6, max_value=0.2, allow_nan=False))
def test_single_click_consistent_with_pattern(ints, p_d):
    for det in Detector:
        via_pattern = exclusive_pattern_prob((det,), ints, p_d)
        via_single = exclusive_single_click(det, None, ints, p_d)
        assert via_single == pytest.approx(via_pattern, rel=1e-12)


@pytest.mark.parametrize("p_d", (-1.0, -1e-9, 1.5, 2.0, float("nan"), float("inf")))
def test_click_model_rejects_p_d_outside_unit_interval(p_d):
    # out of range, the click terms turn into negative "probabilities"
    with pytest.raises(ValueError, match="p_d must be finite and in"):
        click_prob(0.1, p_d)
    with pytest.raises(ValueError, match="p_d must be finite and in"):
        exclusive_pattern_prob([Detector.D1H], ModeIntensities(0.1, 0.0, 0.0, 0.0), p_d)


def test_pattern_rejects_boolean_masks():
    with pytest.raises(ValueError):
        exclusive_pattern_prob((True, False, False, False), INTS, PD)
    # int() once truncated these: 0.5 and -0.5 read as D1H, 3.9 as D2V, "1" as D2H
    for d in (0.5, -0.5, 3.9, 2.0, "1"):
        with pytest.raises(ValueError, match="clicked must contain detector indices"):
            exclusive_pattern_prob((d,), INTS, PD)


def test_pattern_accepts_integer_indices():
    for d in Detector:
        probs = {exclusive_pattern_prob((index,), INTS, PD) for index in (d, int(d), np.int64(d), np.uint8(d))}
        assert len(probs) == 1


def test_system_params_defaults_and_derived():
    sp = SystemParams()
    assert sp.mu == 0.84
    assert sp.alpha == 0.2
    assert sp.l_km == 100.0
    assert sp.eta_d == 0.145
    assert sp.p_d == 8e-8
    assert sp.f == 1.15
    assert sp.eta_t == pytest.approx(0.145 * 10.0 ** (-0.2 * 100.0 / 20.0), rel=1e-15)
    assert sp.mu_arm == pytest.approx(sp.eta_t * sp.mu, rel=1e-15)


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(mu=-0.1)
    with pytest.raises(ValueError):
        SystemParams(eta_d=1.2)
    with pytest.raises(ValueError):
        SystemParams(p_d=-1e-9)
    with pytest.raises(ValueError):
        SystemParams(f=0.9)
    with pytest.raises(ValueError):
        SystemParams(l_km=-5.0)


@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
@pytest.mark.parametrize("name", ("mu", "alpha", "l_km", "eta_d", "p_d", "f"))
def test_system_params_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SystemParams(**{name: value})


def test_eta_t_at_zero_distance():
    sp = SystemParams(l_km=0.0)
    assert sp.eta_t == pytest.approx(sp.eta_d, rel=1e-15)
