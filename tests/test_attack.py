"""Beam-splitting leakage bounds and the discrimination limit."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualqss.attack import (
    StateEnsemble,
    TapParams,
    dual_dof_ensemble,
    ie_dps_tf,
    ie_dual,
    ie_wcp_ph,
    ie_wcp_pol,
    usd_bound,
)
from dualqss.detectors import SystemParams
from dualqss.optics import coherent_overlap

tap_st = st.builds(
    TapParams,
    mu=st.floats(min_value=1e-4, max_value=3.0, allow_nan=False),
    eta_t=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
)

# mu=0.4, eta_t=0.0145: reference operating point for leakage comparisons
REF = TapParams(mu=0.4, eta_t=0.0145)


def test_leakage_quadruple_frozen():
    assert ie_dual(REF) == pytest.approx(0.39899669132771654, rel=1e-12)
    assert ie_wcp_ph(REF) == pytest.approx(0.5454284718139057, rel=1e-12)
    assert ie_wcp_pol(REF) == pytest.approx(0.32578080108462193, rel=1e-12)
    assert ie_dps_tf(REF) == pytest.approx(0.7884, rel=1e-12)


def test_tapped_mu():
    assert REF.tapped_mu == pytest.approx(0.4 * (1.0 - 0.0145), rel=1e-15)
    assert TapParams(mu=0.8, eta_t=1.0).tapped_mu == 0.0


def test_tap_params_validation():
    with pytest.raises(ValueError):
        TapParams(mu=-0.1, eta_t=0.5)
    with pytest.raises(ValueError):
        TapParams(mu=0.5, eta_t=1.5)


@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
@pytest.mark.parametrize("name", ("mu", "eta_t"))
def test_tap_params_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TapParams(**{"mu": 0.5, "eta_t": 0.5, name: value})


@given(tap_st)
def test_leakage_ordering(tap):
    # one polarization bit is cheaper to hide than the dual encoding,
    # which in turn beats a phase-only pulse train
    assert ie_wcp_pol(tap) <= ie_dual(tap) + 1e-12
    assert ie_dual(tap) <= ie_wcp_ph(tap) + 1e-12


@given(tap_st)
def test_leakage_in_unit_interval(tap):
    for fn in (ie_dual, ie_wcp_ph, ie_wcp_pol, ie_dps_tf):
        value = fn(tap)
        assert 0.0 <= value <= 1.0


def test_leakage_monotone_in_mu():
    values = [ie_dual(TapParams(mu=m, eta_t=0.0145)) for m in (0.1, 0.4, 0.8, 1.5)]
    assert values == sorted(values)


def test_leakage_decreases_with_transmittance():
    lo = ie_dual(TapParams(mu=0.84, eta_t=0.5))
    hi = ie_dual(TapParams(mu=0.84, eta_t=0.01))
    assert lo < hi


@given(st.floats(min_value=1e-4, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=0.99, allow_nan=False))
def test_usd_bound_reproduces_dual_leakage(mu, eta_t):
    tap = TapParams(mu=mu, eta_t=eta_t)
    assert usd_bound(dual_dof_ensemble(tap)) == pytest.approx(ie_dual(tap), abs=1e-12)


def test_dual_ensemble_structure():
    ensemble = dual_dof_ensemble(REF)
    assert len(ensemble.probs) == 4
    assert sum(ensemble.probs) == pytest.approx(1.0, abs=1e-15)
    beta = math.sqrt(REF.tapped_mu / 2.0)
    # opposite sign in one arm: overlap exp(-2 beta^2); in both: exp(-4 beta^2)
    assert ensemble.overlaps[0][3] == pytest.approx(math.exp(-2.0 * beta * beta), rel=1e-12)
    assert ensemble.overlaps[0][1] == pytest.approx(math.exp(-4.0 * beta * beta), rel=1e-12)


def test_usd_bound_orthogonal_states_leak_everything():
    ensemble = StateEnsemble(probs=(0.5, 0.5), overlaps=((1.0, 0.0), (0.0, 1.0)))
    assert usd_bound(ensemble) == 1.0


def test_usd_bound_identical_states_leak_nothing():
    ensemble = StateEnsemble(probs=(0.5, 0.5), overlaps=((1.0, 1.0), (1.0, 1.0)))
    assert usd_bound(ensemble) == 0.0


def test_usd_bound_needs_two_states():
    with pytest.raises(ValueError):
        usd_bound(StateEnsemble(probs=(1.0,), overlaps=((1.0,),)))


def test_state_ensemble_validation():
    with pytest.raises(ValueError):
        StateEnsemble(probs=(0.6, 0.6), overlaps=((1.0, 0.5), (0.5, 1.0)))
    with pytest.raises(ValueError):
        StateEnsemble(probs=(0.5, 0.5), overlaps=((1.0, 0.2), (0.3, 1.0)))


@pytest.mark.parametrize("overlaps, message", (
    (((1.0, 0.5), (0.5,)), "shape"),
    (((1.0, 0.5), (0.5, 0.9)), "diagonal must be 1"),
    (((1.0, 1.5), (1.5, 1.0)), r"must be in \[0, 1\]"),
    (((1.0, 1.0 + 5e-10), (1.0 + 5e-10, 1.0)), r"must be in \[0, 1\]"),
))
def test_state_ensemble_rejects_bad_overlaps(overlaps, message):
    # a ragged matrix, a diagonal other than 1, an overlap above 1, even by
    # less than the tolerance of the sums and the symmetry
    with pytest.raises(ValueError, match=message):
        StateEnsemble(probs=(0.5, 0.5), overlaps=overlaps)


@pytest.mark.parametrize("probs", ((math.nan, math.nan), (0.5, math.nan), (math.nan, 1.0)))
def test_state_ensemble_rejects_non_finite_probabilities(probs):
    # a NaN sum passes the sum-to-one check, and usd_bound then returns 0
    with pytest.raises(ValueError, match="probabilities must be finite"):
        StateEnsemble(probs=probs, overlaps=((1.0, 0.5), (0.5, 1.0)))


def test_phase_only_identity():
    # losing both pulses of a pair wipes the phase bit; losing one of two
    # polarization modes wipes that bit, hence the square-root relation
    for mu in (0.2, 0.84, 1.5):
        tap = TapParams(mu=mu, eta_t=0.0145)
        assert ie_wcp_pol(tap) == pytest.approx(
            1.0 - math.sqrt(1.0 - ie_wcp_ph(tap)), rel=1e-12)


def test_dps_clamps_at_one():
    assert ie_dps_tf(TapParams(mu=2.0, eta_t=0.0)) == 1.0


def test_leakage_vanishes_without_tapped_light():
    for fn in (ie_dual, ie_wcp_ph, ie_wcp_pol, ie_dps_tf):
        assert fn(TapParams(mu=0.0, eta_t=0.3)) == 0.0
        assert fn(TapParams(mu=0.84, eta_t=1.0)) == 0.0


def test_brightest_tap_gives_orthogonal_states():
    # Amplitudes far apart once raised a bare OverflowError from the squared
    # difference; their overlap is 0, so Eve distinguishes every state. Just
    # below the clamp the overlap is the same exponential, bit for bit.
    tap = TapParams(mu=1e308, eta_t=0.0)
    overlaps = dual_dof_ensemble(tap).overlaps
    assert all(x == (i == j) for i, row in enumerate(overlaps) for j, x in enumerate(row))
    assert ie_dual(tap) == 1.0
    assert coherent_overlap(20.0, -20.0) == math.exp(-0.5 * 40.0 ** 2) == 0.0
    assert coherent_overlap(19.0, -19.0) == math.exp(-0.5 * 38.0 ** 2) > 0.0


def test_vacuum_ensemble_overlaps_are_one():
    ensemble = dual_dof_ensemble(TapParams(mu=0.0, eta_t=0.5))
    assert all(x == 1.0 for row in ensemble.overlaps for x in row)


def test_leakage_bound_covers_the_states_it_bounds():
    """``ie_dual`` against what discrimination of the tapped light can reach.

    The four tapped states are equiprobable and symmetric, so the optimal
    unambiguous discrimination succeeds with the smallest eigenvalue of
    their Gram matrix (Chefles and Barnett, Phys. Lett. A 250, 223, 1998;
    Eldar, IEEE Trans. Inf. Theory 49, 446, 2003), which is (1 - e^-x)^2
    at tapped intensity x; one mode alone reveals 1 - e^-x. ``ie_dual``
    lies above both, equal only at x = 0: it is a bound with slack, not
    Eve's optimum. At criterion 1's point (mu = 0.4, eta_t = 0.0145) it
    reads 0.399 against 0.106 and 0.326. Over criterion 9's 20x20 grid
    and the leakage figure's points (mu = 0.05 to 2 at 100 km) the smallest
    margins are 3.3e-3 and 8.3e-4, at mu = 0.05, eta_t = 0.95.
    """
    figure_eta_t = SystemParams(l_km=100.0).eta_t
    taps = [TapParams(mu=float(mu), eta_t=float(eta_t))
            for mu in np.linspace(0.05, 2.0, 20) for eta_t in np.linspace(0.0, 0.95, 20)]
    taps += [TapParams(mu=0.05 * k, eta_t=figure_eta_t) for k in range(1, 41)]
    margins = []
    for tap in taps:
        one_mode = -math.expm1(-tap.tapped_mu)
        gram = np.linalg.eigvalsh(np.array(dual_dof_ensemble(tap).overlaps))
        assert gram.min() == pytest.approx(one_mode ** 2, abs=1e-15)
        margins.append((ie_dual(tap) - one_mode ** 2, ie_dual(tap) - one_mode, tap.mu, tap.eta_t))
    assert min(m[0] for m in margins) > 0.0 and min(m[1] for m in margins) > 0.0
    low_gram, low_mode = min(margins), min(margins, key=lambda m: m[1])
    assert low_gram[0] == pytest.approx(3.32e-3, rel=1e-2) and low_gram[2:] == (0.05, 0.95)
    assert low_mode[1] == pytest.approx(8.30e-4, rel=1e-2) and low_mode[2:] == (0.05, 0.95)
    x = REF.tapped_mu
    assert (ie_dual(REF), (-math.expm1(-x)) ** 2, -math.expm1(-x)) == pytest.approx((0.399, 0.106, 0.326), abs=1e-3)
    for tap in (TapParams(mu=0.0, eta_t=0.3), TapParams(mu=0.84, eta_t=1.0)):
        assert ie_dual(tap) == -math.expm1(-tap.tapped_mu) == 0.0
