"""Mode algebra, photon-parity masses, and entropy helpers.

Frozen numbers were produced by a brute-force Poisson enumeration
(terms up to n=60, summed in descending magnitude) independent of the
closed forms under test.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualqss.detectors import click_prob
from dualqss.optics import (
    SMALLEST_POSITIVE,
    EncodingPair,
    ModeIntensities,
    PolPairing,
    binary_entropy,
    check_range,
    coherent_overlap,
    detector_amplitudes,
    intensities,
    is_integer,
    poisson_even_mass,
    poisson_odd_mass,
)

intensity_st = st.floats(min_value=1e-9, max_value=8.0,
                         allow_nan=False, allow_infinity=False)


# --- the boundary rule ---

@pytest.mark.parametrize("name, value, lo, hi, message", (
    # the bound pairs in use, worded as before the words came from the bounds
    ("mu", -1.0, 0.0, math.inf, "mu must be finite and non-negative, got -1.0"),
    ("step", 0.0, SMALLEST_POSITIVE, math.inf, "step must be finite and positive, got 0.0"),
    ("p_d", 1.5, 0.0, 1.0, "p_d must be finite and in [0, 1], got 1.5"),
    ("f", 0.5, 1.0, math.inf, "f must be finite and >= 1, got 0.5"),
    ("lo", math.nan, -math.inf, math.inf, "lo must be finite, got nan"),
    # ranges no call site uses
    ("x", 1.0, 2.0, math.inf, "x must be finite and >= 2, got 1.0"),
    ("x", 0.75, 0.0, 0.5, "x must be finite and in [0, 0.5], got 0.75"),
    pytest.param("mu", 10**400, 0.0, math.inf,
                 "mu must be finite and non-negative, got an integer beyond the float range", id="10**400"),
))
def test_check_range_words_range_from_bounds(name, value, lo, hi, message):
    with pytest.raises(ValueError) as excinfo:
        check_range(name, value, lo, hi)
    assert str(excinfo.value) == message


def test_check_range_takes_no_words():
    with pytest.raises(TypeError):
        check_range("mu", -1.0, 0.0, rule="non-negative")


class Count(int):
    pass


@pytest.mark.parametrize("value, answer", (
    (0, True), (-3, True), (10**400, True), (np.int64(5), True), (np.uint8(5), True), (Count(5), True),
    (True, False), (False, False), (np.bool_(True), False), (1.0, False), (np.float64(1.0), False), ("1", False),
))
def test_is_integer(value, answer):
    # ints, numpy integers and int subclasses are counts; bools and integral floats are not
    assert is_integer(value) is answer


# --- parity masses ---

# sum over even n>=2 (resp. odd n) of e^-i i^n / n!
PARITY_ORACLES = {
    0.3: (0.03358759736529536, 0.22559418195298675),
    1.0: (0.19978820044686407, 0.43233235838169365),
    2.5: (0.4212839748756442, 0.4966310265004572),
}


@pytest.mark.parametrize("i", sorted(PARITY_ORACLES))
def test_parity_masses_match_enumeration(i):
    even, odd = PARITY_ORACLES[i]
    assert poisson_even_mass(i) == pytest.approx(even, rel=1e-12)
    assert poisson_odd_mass(i) == pytest.approx(odd, rel=1e-12)


@given(intensity_st)
def test_parity_partition(i):
    # even-with-light + odd + vacuum exhausts the Poisson distribution
    total = poisson_even_mass(i) + poisson_odd_mass(i) + math.exp(-i)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_parity_masses_at_zero():
    assert poisson_even_mass(0.0) == 0.0
    assert poisson_odd_mass(0.0) == 0.0


def test_parity_masses_reject_negative():
    with pytest.raises(ValueError):
        poisson_even_mass(-0.1)
    with pytest.raises(ValueError):
        poisson_odd_mass(-0.1)
    # NaN once passed through to a NaN result, 10**400 to an OverflowError
    for i in (math.nan, math.inf, 10**400):
        for prob in (poisson_even_mass, poisson_odd_mass, lambda i: click_prob(i, 0.1)):
            with pytest.raises(ValueError, match="i must be finite and non-negative"):
                prob(i)


# --- encoding pairs and the beam splitter ---

# all 16 pairs, ordered by (ka_ph, ka_pol, kb_ph, kb_pol)
ALL_PAIRS = tuple(EncodingPair(*bits) for bits in itertools.product((0, 1), repeat=4))


def test_encoding_pair_rejects_nonbits():
    with pytest.raises(ValueError):
        EncodingPair(2, 0, 0, 0)
    with pytest.raises(ValueError):
        EncodingPair(0, 0, -1, 0)
    # bits follow the integer rule of counts: no bools, no integral floats
    with pytest.raises(ValueError, match="ka_pol must be 0 or 1, got True"):
        EncodingPair(0, True, 0, 0)
    with pytest.raises(ValueError, match="kb_pol must be 0 or 1, got 1.0"):
        EncodingPair(0, 0, 0, 1.0)


def test_energy_conservation_all_pairs():
    # the splitter is passive: total output intensity is 2 * mu_arm
    mu_arm = 0.37
    for pair in ALL_PAIRS:
        ints = intensities(detector_amplitudes(pair, mu_arm))
        assert sum(ints.as_tuple()) == pytest.approx(2.0 * mu_arm, rel=1e-12)


LIGHT_PLACEMENT = [
    # (pair, lit modes): phase agreement picks the H port index,
    # polarization agreement decides whether V follows H or not.
    (EncodingPair(0, 0, 0, 0), ("i_h1", "i_v1")),
    (EncodingPair(0, 0, 0, 1), ("i_h1", "i_v2")),
    (EncodingPair(0, 0, 1, 0), ("i_h2", "i_v2")),
    (EncodingPair(0, 0, 1, 1), ("i_h2", "i_v1")),
]


@pytest.mark.parametrize("pair,lit", LIGHT_PLACEMENT)
def test_light_placement(pair, lit):
    mu_arm = 0.5
    ints = intensities(detector_amplitudes(pair, mu_arm))
    for name in ("i_h1", "i_h2", "i_v1", "i_v2"):
        value = getattr(ints, name)
        if name in lit:
            assert value == pytest.approx(mu_arm, rel=1e-12)
        else:
            assert value == pytest.approx(0.0, abs=1e-15)


@given(st.integers(min_value=0, max_value=15),
       st.floats(min_value=1e-6, max_value=4.0, allow_nan=False))
def test_exactly_two_modes_lit(pair_id, mu_arm):
    pair = ALL_PAIRS[pair_id]
    ints = intensities(detector_amplitudes(pair, mu_arm))
    lit = [x for x in ints.as_tuple() if x > 1e-12 * mu_arm]
    assert len(lit) == 2
    for x in lit:
        assert x == pytest.approx(mu_arm, rel=1e-9)


def test_detector_amplitudes_rejects_negative_intensity():
    with pytest.raises(ValueError):
        detector_amplitudes(EncodingPair(0, 0, 0, 0), -0.2)


@pytest.mark.parametrize("mu_arm", (math.nan, math.inf, pytest.param(10**400, id="10**400")))
def test_detector_amplitudes_rejects_non_finite_intensity(mu_arm):
    # inf would give NaN intensities through inf - inf
    with pytest.raises(ValueError, match="mu_arm must be finite"):
        detector_amplitudes(EncodingPair(0, 1, 1, 0), mu_arm)


@pytest.mark.parametrize("value", (math.nan, math.inf))
@pytest.mark.parametrize("position", range(4))
def test_mode_intensities_reject_non_finite(position, value):
    values = [0.1] * 4
    values[position] = value
    with pytest.raises(ValueError, match="must be finite"):
        ModeIntensities(*values)


def test_matched_encoding_amplitudes():
    mu_arm = 0.64
    amps = detector_amplitudes(EncodingPair(0, 0, 0, 0), mu_arm)
    root = math.sqrt(mu_arm)
    assert amps.a_h1 == pytest.approx(root, rel=1e-12)
    assert amps.a_v1 == pytest.approx(root, rel=1e-12)
    assert amps.a_h2 == 0.0
    assert amps.a_v2 == 0.0


def test_vacuum_in_vacuum_out():
    amps = detector_amplitudes(EncodingPair(0, 0, 0, 0), 0.0)
    assert (amps.a_h1, amps.a_h2, amps.a_v1, amps.a_v2) == (0.0, 0.0, 0.0, 0.0)


def test_pol_pairing_representatives():
    same = PolPairing.PLUS_PLUS.representative()
    diff = PolPairing.PLUS_MINUS.representative()
    assert (same.ka_pol ^ same.kb_pol) == 0
    assert (diff.ka_pol ^ diff.kb_pol) == 1


# --- overlaps and entropy ---

@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_coherent_overlap_symmetric_unit_diagonal(a, b):
    assert coherent_overlap(a, a) == 1.0
    assert coherent_overlap(a, b) == pytest.approx(coherent_overlap(b, a), rel=1e-15)
    assert 0.0 < coherent_overlap(a, b) <= 1.0


def test_coherent_overlap_value():
    # |<alpha|beta>| = exp(-(alpha-beta)^2 / 2) for real amplitudes
    assert coherent_overlap(0.7, -0.7) == pytest.approx(math.exp(-0.98), rel=1e-12)
    assert coherent_overlap(0.0, 0.9) == pytest.approx(math.exp(-0.405), rel=1e-12)


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")))
@pytest.mark.parametrize("name", ("alpha", "beta"))
def test_coherent_overlap_rejects_non_finite(name, value):
    # NaN once gave a NaN overlap
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        coherent_overlap(**{"alpha": 0.3, "beta": 0.3, name: value})


def test_binary_entropy_oracles():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)
    assert binary_entropy(0.0239) == pytest.approx(0.16281065732932964, rel=1e-12)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)


@given(st.floats(min_value=1e-9, max_value=0.5, allow_nan=False))
def test_binary_entropy_symmetry(e):
    assert binary_entropy(e) == pytest.approx(binary_entropy(1.0 - e), rel=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
