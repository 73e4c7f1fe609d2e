"""The closed forms against high-precision references, and the analytic entry points at the
edges of their domain.

The references were computed once with mpmath at 50 digits from the closed forms in a
cancellation-free coding (ge = 2 sinh(I/2)^2 + p_d, I_E = -(expm1(-2x) + 2 expm1(-x))/3) and
are pasted here as 25-digit decimal strings, so the suite needs no mpmath. An error is counted
in units in the last place (ulp) of the reference rounded to a float; for a reference of 0 the
unit is the smallest subnormal, 5e-324.

Bounds: 3 ulp for the leakage and the key budget, 8 ulp for every output of ``_event_terms``.
The event outputs are ratios of masses (expm1, sinh) that each carry their own rounding, so
their errors add: over 10,011 points (the 9,201 arm intensities of the 0-460 km sweep at the
defaults and 810 seeded points on every branch) the worst was 7.7 ulp (Event2's e_ph at
I = 0.0043), and at the points below it is 5.1 ulp (Event2's q at I = 0.12). No point needs a
wider bound. Left out: p_d = 0 at I below ~1e-154, where 2 sinh(I/2)^2 underflows to 0 and
Event1's e_ph reads 0 for I/2.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dualqss.attack import TapParams, _budget_tapped, ie_dual
from dualqss.detectors import SystemParams
from dualqss.optimize import max_distance, optimize_mu
from dualqss.rates import _event_terms, key_rate, qber_threshold_event1

LEAKAGE_ULPS = 3.0
EVENT_ULPS = 8.0

# x: (I_E, the budget 1 - I_E)
LEAKAGE = {
    1e-12: ("1.333333333332333306515531e-12", "9.999999999986666666666677e-1"),
    1e-08: ("1.333333323333333416785636e-8", "9.999999866666667666666658e-1"),
    1e-05: ("1.333323333388888747958936e-5", "9.999866667666661111125204e-1"),
    0.01: ("1.323388639830286381721822e-2", "9.867661136016971361827818e-1"),
    1.0: ("7.09635278140167554971651e-1", "2.90364721859832445028349e-1"),
    10.0: ("9.999697326931071359527903e-1", "3.026730689286404720967033e-5"),
    37.1: ("9.999999999999999485265281e-1", "5.147347187770749932245991e-17"),
    40.0: ("9.999999999999999971677638e-1", "2.832236170194392669568994e-18"),
}

# (I, p_d): Event1's (q, e_bit, e_ph), then Event2's, which Event3 shares
EVENT_TERMS = {
    (1e-08, 8e-08): ("1.699999558500041047233406e-7", "4.705882351557093421399009e-1",
                     "4.705882354498269891122193e-1", "1.444999740750014071424293e-14",
                     "4.844290656665988192043518e-1", "2.768166089980663549678624e-1"),
    (1e-05, 8e-08): ("1.01598443628356238060882e-5", "7.873976998015527721391946e-3",
                     "7.87889823363932843721686e-3", "5.161226748914209894301127e-11",
                     "1.174896598325801396024178e-2", "1.556918228516794910028434e-2"),
    (0.0123, 8e-08): ("1.207537499243952318698352e-2", "6.464063471130132003145285e-6",
                      "6.118717139039347225754071e-3", "7.472312740987628437178212e-5",
                      "9.696053422578639205787031e-6", "9.143789937315114765995787e-3"),
    (0.12, 1e-05): ("1.00305298988671591720914e-1", "7.842100770324682197817245e-5",
                    "5.660933483582120351218141e-2", "6.395371915600823759155314e-3",
                    "1.17625361700421040269866e-4", "8.173971724486283740632008e-2"),
    (1.5, 0.0): ("1.733430917805658859539381e-1", "0", "3.884349199257850855333598e-1",
                 "3.017633740355021425563907e-1", "0", "4.317706928709265570218443e-1"),
    (20.0, 0.001): ("2.054976338743805158115061e-9", "2.061153626678415426374845e-12",
                    "4.999999989694231887849694e-1", "4.990004979470806924960552e-1",
                    "3.091730440013374785289498e-12", "4.999999994836810165213053e-1"),
    (300.0, 0.3): ("1.765832676287320810956179e-131", "1.544460066723604077189954e-131", "5.0e-1",
                   "2.450000000000000077715612e-1", "2.316690100085406115784932e-131", "5.0e-1"),
    (0.5, 1.0): ("0", "3.775406687981454353610994e-1", "4.257246610581712764408003e-1",
                 "0", "4.237740466006672067498524e-1", "3.246590924337032864327662e-1"),
    # I >= _SCALED_FROM_I: the masses are taken times e^-I
    (400.0, 0.0): ("1.91516959671400569501984e-174", "0", "5.0e-1", "5.0e-1", "0", "5.0e-1"),
    (400.0, 0.001): ("1.909429831517484223118496e-174", "1.915169596714005734887316e-177", "5.0e-1",
                     "4.990004999999999999792041e-1", "2.872754395071008602330974e-177", "5.0e-1"),
    (5000.0, 8e-08): ("3.369693339582386618435734e-2172", "2.69575531864713406796213e-2179", "5.0e-1",
                      "4.999999200000031999999983e-1", "4.043632977970701101943196e-2179", "5.0e-1"),
    # subnormal s * s: the double-click rates are taken on the masses scaled by 1 / s
    (1e-200, 1e-170): ("1.999999999999999966690998e-170", "5.0e-1", "5.0e-1",
                       "1.999999999999999933381996e-340", "5.0e-1", "2.5e-1"),
    (3e-160, 5e-160): ("1.299999999999999985227642e-159", "3.846153846153846153846154e-1",
                       "3.846153846153846153846154e-1", "8.449999999999999807959344e-319",
                       "4.289940828402366863905325e-1", "3.254437869822485207100592e-1"),
}


def _ulps(got: float, reference: str) -> float:
    exact = Fraction(reference)
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


@pytest.mark.parametrize("x", LEAKAGE)
def test_ie_dual_against_reference(x):
    # written as 1 - (e^-2x + 2 e^-x)/3 it cancels: 3.3e11 ulp off at 1e-12, 32 ulp at 0.01
    assert _ulps(ie_dual(TapParams(mu=x, eta_t=0.0)), LEAKAGE[x][0]) <= LEAKAGE_ULPS


@pytest.mark.parametrize("x", LEAKAGE)
def test_key_budget_against_reference(x):
    # computed as 1 - I_E it cancels as I_E nears 1: 1.4e4 ulp off at 10, 0 for 5e-17 at 37.1
    assert _ulps(_budget_tapped(x), LEAKAGE[x][1]) <= LEAKAGE_ULPS


@pytest.mark.parametrize("i, p_d", EVENT_TERMS)
def test_event_terms_against_reference(i, p_d):
    event1, double, event3 = _event_terms(i, p_d)
    assert event3 is double
    errors = [_ulps(got, ref) for got, ref in zip((*event1, *double), EVENT_TERMS[i, p_d])]
    assert max(errors) <= EVENT_ULPS, errors


# --- every field at the edges of the float domain ---

EDGE_VALUES = (0.0, -0.0, 5e-324, 1e300, sys.float_info.max, math.inf, -math.inf, math.nan,
               True, np.float32(0.5), 2**70)
FIELDS = ("mu", "alpha", "l_km", "eta_d", "p_d", "f")


def _optimum(sp):
    result = optimize_mu(sp.l_km, sp)
    return result.best_mu, result.best_rate


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return math.isfinite(value)


@pytest.mark.parametrize("field", FIELDS)
def test_entry_points_finite_or_refuse_at_edge_values(field):
    # Products in place of integer powers turn an OverflowError into a silent inf; each call
    # must give a finite answer or refuse with ValueError or TypeError, and warn nothing.
    calls = (key_rate, _optimum, lambda sp: max_distance(sp.mu, sp), qber_threshold_event1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in EDGE_VALUES:
            try:
                sp = SystemParams(**{field: value})
            except (ValueError, TypeError):
                continue
            for call in calls:
                try:
                    result = call(sp)
                except (ValueError, TypeError):
                    continue
                assert _finite(result), (field, value, result)
