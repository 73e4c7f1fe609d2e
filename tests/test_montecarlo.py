"""Simulation invariants: reproducibility, partitioning, attack wiring.

Statistical assertions use generous sigma margins at fixed seeds so
they stay deterministic.
"""

import hashlib
import json

import numpy as np
import pytest

from dualqss import montecarlo
from dualqss.detectors import SystemParams
from dualqss.montecarlo import (
    SimConfig,
    _block_sizes,
    compare_to_analytic,
    max_abs_sigma,
    simulate,
    simulate_beam_split,
    simulate_dishonest_bob,
)

SP = SystemParams(mu=0.84, l_km=100.0)


def config(**kw):
    base = dict(sp=SP, rounds=200_000, seed=5, basis_policy=0.5)
    base.update(kw)
    return SimConfig(**base)


def counts(report):
    return report.to_dict()["counts"]


def test_reproducible_across_calls():
    a = simulate(config())
    b = simulate(config())
    assert a == b


def test_worker_count_does_not_change_tallies():
    cfg = config(rounds=1_200_000)
    assert simulate(cfg, threads=1) == simulate(cfg, threads=3)


FAR = SystemParams(mu=0.84, l_km=400.0)


def test_worker_count_does_not_change_far_tallies():
    # at 400 km a block holds about 1.7e8 rounds, so this run has several
    cfg = config(sp=FAR, rounds=10**9)
    assert len(_block_sizes(cfg)) > 2
    assert simulate(cfg, threads=1).to_dict() == simulate(cfg, threads=3).to_dict()


@pytest.mark.parametrize("cfg", (
    config(sp=FAR, rounds=10**9),
    config(sp=FAR, rounds=10**9 + 7, basis_policy=1.0),
    config(sp=SystemParams(mu=0.4, l_km=300.0), rounds=123_456_789),
    config(rounds=1_100_000),
    config(rounds=1),
), ids=("far", "far-odd", "300km", "near", "one"))
def test_block_sizes_partition_rounds_whatever_the_threads(cfg, monkeypatch):
    sizes = _block_sizes(cfg)
    assert sum(sizes) == cfg.rounds and all(s > 0 for s in sizes)
    real = montecarlo._block_tallies
    seen = []
    monkeypatch.setattr(montecarlo, "_block_tallies",
                        lambda c, block, size: seen.append((block, size)) or real(c, block, size))
    for threads in (1, 2, 3):
        seen.clear()
        simulate(cfg, threads=threads)
        assert sorted(seen) == list(enumerate(sizes))


@pytest.mark.parametrize("kw", (
    dict(sp=SystemParams(mu=0.4, l_km=100.0), basis_policy=1.0),
    dict(sp=SystemParams(mu=0.84, l_km=100.0)),
    dict(sp=SystemParams(mu=1.5, l_km=100.0), basis_policy=0.0),
    dict(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0)),
    dict(sp=SystemParams(mu=0.84, l_km=100.0, p_d=0.02)),
    dict(sp=SystemParams(p_d=1.0)),
), ids=("100km-mu0.4", "100km", "100km-z", "bright", "pd0.02", "pd1"))
def test_blocks_that_click_often_keep_500k_rounds(kw):
    rounds = 1_100_000
    assert _block_sizes(config(rounds=rounds, **kw)) == [500_000, 500_000, 100_000]


def test_dark_source_is_one_block_of_any_size():
    cfg = SimConfig(sp=SystemParams(mu=0.0, p_d=0.0), rounds=10**12, seed=2)
    assert _block_sizes(cfg) == [10**12]
    rep = simulate(cfg, threads=2)
    assert rep.n_xx + rep.n_zz + rep.n_mixed == 10**12
    assert rep.n_event1 == rep.n_event2 == rep.n_event3 == rep.n_check_z_bits == 0


def test_round_partition():
    rep = simulate(config())
    assert rep.n_xx + rep.n_zz + rep.n_mixed == rep.rounds
    assert rep.n_event1 + rep.n_event2 + rep.n_event3 + rep.n_fail_xx == rep.n_xx


def test_basis_policy_extremes():
    all_x = simulate(config(basis_policy=1.0))
    assert all_x.n_zz == 0 and all_x.n_mixed == 0
    all_z = simulate(config(basis_policy=0.0))
    assert all_z.n_xx == 0 and all_z.n_mixed == 0
    assert all_z.n_event1 == 0


def test_check_fraction_partitions_events():
    rep = simulate(config(check_fraction=0.3, basis_policy=1.0))
    n_events = rep.n_event1 + rep.n_event2 + rep.n_event3
    # checked events are excluded from the key tally
    assert rep.n_key_events < n_events
    assert rep.n_check_x_bits > 0


def test_paired_seed_attack_invariance():
    honest = simulate(config(rounds=400_000))
    tapped = simulate_beam_split(config(rounds=400_000))
    hc, tc = counts(honest), counts(tapped)
    diff = {k for k in hc if hc[k] != tc[k]}
    assert diff <= {"n_eve_success"}
    assert honest.parity == tapped.parity
    assert tc["n_eve_success"] > 0


def test_beam_split_leak_matches_bound():
    rep = simulate_beam_split(config(rounds=2_000_000, basis_policy=1.0))
    rows = compare_to_analytic(rep)
    leak = next(r for r in rows if r["name"] == "eve_leak")
    assert leak["n"] > 10_000
    assert abs(leak["sigma"]) < 5.0


def test_dishonest_receiver_trips_checking():
    cfg = config(rounds=2_000_000, basis_policy=1.0, check_fraction=0.3,
                 flip_fraction=0.05)
    rep = simulate_dishonest_bob(cfg)
    d = rep.to_dict()["rates"]
    assert d["qber_check_x"] > 0.0239
    # protocol-side statistics stay untouched
    honest = simulate(cfg)
    assert counts(rep)["n_event1"] == counts(honest)["n_event1"]
    assert counts(rep)["n_err1_ph"] == counts(honest)["n_err1_ph"]
    assert d["qber_check_x"] > honest.to_dict()["rates"]["qber_check_x"]


def test_full_flip_randomizes_checking():
    cfg = config(rounds=2_000_000, basis_policy=1.0, check_fraction=0.5,
                 flip_fraction=0.5)
    rep = simulate_dishonest_bob(cfg)
    d = rep.to_dict()
    assert d["counts"]["n_check_x_bits"] > 5_000
    assert d["rates"]["qber_check_x"] == pytest.approx(0.5, abs=0.03)


def test_single_round_report():
    rep = simulate(SimConfig(sp=SP, rounds=1, seed=1))
    assert rep.n_xx + rep.n_zz + rep.n_mixed == 1


def test_z_rounds_feed_z_checking():
    rep = simulate(config(rounds=1_000_000, basis_policy=0.0))
    assert rep.n_check_z_bits > 0
    assert rep.n_check_z_err <= rep.n_check_z_bits


def test_gain_decreases_with_distance_paired_seeds():
    tallies = [
        simulate(SimConfig(sp=SystemParams(mu=0.84, l_km=l_km),
                           rounds=1_000_000, seed=9, basis_policy=1.0)).n_event1
        for l_km in (100.0, 200.0, 300.0)
    ]
    assert tallies[0] > tallies[1] > tallies[2]


def test_saturated_darks_produce_no_events():
    # every detector clicks in every round, so no pattern is usable
    rep = simulate(SimConfig(sp=SystemParams(p_d=1.0), rounds=100_000, seed=2,
                             basis_policy=1.0))
    assert rep.n_event1 == rep.n_event2 == rep.n_event3 == 0
    assert rep.n_fail_xx == rep.n_xx


def test_full_check_fraction_leaves_no_key():
    rep = simulate(config(check_fraction=1.0, basis_policy=1.0))
    assert rep.n_key_events == 0
    assert rep.n_check_x_bits == rep.n_event1 + 2 * (rep.n_event2 + rep.n_event3)


def test_dark_source_produces_no_events():
    sp = SystemParams(mu=0.0, p_d=0.0)
    rep = simulate(SimConfig(sp=sp, rounds=100_000, seed=2, basis_policy=1.0))
    assert rep.n_event1 == rep.n_event2 == rep.n_event3 == 0
    assert rep.n_fail_xx == rep.n_xx


def test_lossless_channel_leaks_nothing():
    sp = SystemParams(mu=0.84, l_km=0.0, eta_d=1.0)
    rep = simulate_beam_split(SimConfig(sp=sp, rounds=100_000, seed=2,
                                        basis_policy=1.0))
    assert rep.n_eve_success == 0


def test_zero_flip_equals_no_attack():
    cfg = config(check_fraction=0.4, flip_fraction=0.0)
    flipped = simulate_dishonest_bob(cfg)
    honest = simulate(cfg)
    assert counts(flipped) == counts(honest)


def test_compare_rows_within_five_sigma_smoke():
    rep = simulate(config(rounds=2_000_000, basis_policy=1.0, seed=11))
    rows = compare_to_analytic(rep)
    assert len(rows) > 40
    assert max_abs_sigma(rows) < 5.0
    names = {r["name"] for r in rows}
    assert {"q_event1", "q_event2", "q_event3", "qber_event1_ph"} <= names


def informative(rows):
    return [r for r in rows if r["informative"]]


def test_rows_flag_their_evidence():
    rows = compare_to_analytic(simulate(config(basis_policy=1.0)))
    assert all(r["informative"] == (r["expected"] >= 10.0) for r in rows)
    assert 0 < len(informative(rows)) < len(rows)


@pytest.mark.parametrize("p_d, rounds", ((0.02, 1_000_000), (0.7, 300_000)),
                         ids=("pd0.02", "pd0.7"))
def test_heavy_dark_counts_match_closed_forms(p_d, rounds):
    # p_d = 0.02 makes darks a large share of every click pattern; at
    # p_d = 0.7 the dark mean -ln(0.3) = 1.2 is drawn per round
    sp = SystemParams(mu=0.84, l_km=100.0, p_d=p_d)
    rows = compare_to_analytic(simulate(SimConfig(sp=sp, rounds=rounds, seed=13,
                                                  basis_policy=1.0)))
    assert len(informative(rows)) > 20
    assert max_abs_sigma(informative(rows)) < 5.0


def test_far_gains_match_closed_forms():
    """The 400 km evidence check: every gain row and the Event1 QBER row
    expect at least 10 counts at mu = 1.5, and each is within 5 sigma.

    At 5e10 rounds Event2 and Event3 expect about 12 counts each. Their
    QBER rows stay uninformative: they need about 1e13 rounds for 10
    expected errors. Criterion 8 keeps its 1e7 rounds.
    """
    cfg = SimConfig(sp=SystemParams(mu=1.5, l_km=400.0), rounds=5 * 10**10, seed=2026,
                    basis_policy=1.0)
    rows = {r["name"]: r for r in compare_to_analytic(simulate(cfg))}
    for name in ("q_event1", "q_event2", "q_event3", "qber_event1_ph"):
        assert rows[name]["informative"], name
        assert abs(rows[name]["sigma"]) < 5.0, name


def test_bright_cells_match_closed_forms_for_any_worker_count():
    # mean photon numbers up to ~29 per mode: the per-round Poisson cells
    sp = SystemParams(mu=20.0, l_km=0.0, eta_d=1.0)
    cfg = SimConfig(sp=sp, rounds=700_000, seed=17, basis_policy=0.5)
    rep = simulate(cfg, threads=1)
    assert rep == simulate(cfg, threads=3)
    rows = informative(compare_to_analytic(rep))
    assert len(rows) >= 10
    assert max_abs_sigma(rows) < 5.0


@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
@pytest.mark.parametrize("name", ("rounds", "basis_policy", "check_fraction", "flip_fraction"))
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        config(**{name: value})


@pytest.mark.parametrize("name, value", (
    ("rounds", 1.5),
    ("rounds", 2.0),
    ("rounds", True),
    ("seed", -1),
    ("seed", 1.5),
    ("rounds", 10**400),
    # twice mu_arm, a Z-basis pulse in one mode, beyond numpy's Poisson limit
    pytest.param("sp", SystemParams(mu=1e19, l_km=0.0, eta_d=1.0), id="sp-mu1e19"),
))
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        config(**{name: value})


def test_config_accepts_intensity_below_poisson_limit():
    sp = SystemParams(mu=4e18, l_km=0.0, eta_d=1.0)
    assert simulate(SimConfig(sp=sp, rounds=10, seed=1)).rounds == 10
    with pytest.raises(ValueError, match="mu = 1e"):
        SimConfig(sp=SystemParams(mu=1e19, l_km=0.0, eta_d=1.0), rounds=10, seed=1)


def test_config_accepts_numpy_integers():
    cfg = config(rounds=np.int64(1000), seed=np.uint32(3))
    assert simulate(cfg).rounds == 1000
    # an unsigned count must not wrap while it is split into blocks
    assert simulate(config(rounds=np.uint32(1_200_000))).rounds == 1_200_000


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(sp=SP, rounds=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(sp=SP, rounds=10, seed=1, basis_policy=1.5)
    with pytest.raises(ValueError):
        SimConfig(sp=SP, rounds=10, seed=1, attack="siphon")


@pytest.mark.parametrize("threads", (0, -1, 2.5, float("nan"), True, "2", None))
def test_simulate_rejects_bad_thread_count(threads):
    # NaN once started no worker and never returned; 2.5 started three
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        simulate(config(rounds=1000), threads=threads)


def test_report_dict_key_order():
    d = simulate(config(rounds=1000)).to_dict()
    assert list(d) == ["config", "counts", "rates", "parity"]
    assert list(d["config"]) == [
        "rounds", "seed", "basis_policy", "check_fraction", "attack", "flip_fraction",
        "mu", "alpha", "l_km", "eta_d", "p_d", "f",
    ]
    assert list(d["counts"]) == [
        "n_xx", "n_zz", "n_mixed", "n_event1", "n_event2", "n_event3", "n_fail_xx",
        "n_err1_ph", "n_err2_ph", "n_err2_pol", "n_err3_ph", "n_err3_pol",
        "n_check_x_bits", "n_check_x_err", "n_check_z_bits", "n_check_z_err",
        "n_key_events", "n_eve_success",
    ]
    assert list(d["parity"]) == ["plus_plus", "plus_minus"]
    rep = d["parity"]["plus_minus"]
    assert list(rep) == ["n", "h1", "h2", "h1v1", "h2v2", "h1v2", "h2v1"]
    assert list(rep["h2"]) == ["odd", "even"]
    assert list(rep["h1v2"]) == ["oo", "oe", "eo", "ee"]


def test_report_dict_shape():
    rep = simulate(config(rounds=100_000))
    d = rep.to_dict()
    assert set(d) == {"config", "counts", "rates", "parity"}
    assert d["config"]["seed"] == 5
    assert set(d["parity"]) == {"plus_plus", "plus_minus"}
    for cells in d["parity"].values():
        assert set(cells) == {"n", "h1", "h2", "h1v1", "h2v2", "h1v2", "h2v1"}


PINNED = {
    "near": (dict(rounds=1_100_000),
             "f6076d4b8bce4263bf5746693d084c8f33d8aa0ac8525c95a741530b51720599"),
    "bright": (dict(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=600_000, seed=17),
               "f27a7be943f67d840ffda556ab8be06220cbd79b14682976e10e891554807f02"),
    "dark": (dict(sp=SystemParams(mu=0.84, l_km=100.0, p_d=0.02), rounds=600_000, seed=13),
             "5d226e93236f7d937bbdbb98b340fcbe87d5b1efff8e0849439aa4750a28f0b6"),
    "checked-none": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05),
                     "f172b1795e8174cef242c7b11af0c4d35e2f20d76799367b3982446f82122d95"),
    "checked-beam_split": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                attack="beam_split"),
                           "dd10d7d07ff11d60949123f59e16197e2cc9b142927bdcdaa3cc2746f74594c0"),
    "checked-dishonest_bob": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                   attack="dishonest_bob"),
                              "f624a5caac1852b4b2b187d55f20a91ce89f825421c7990e60936a2ca60a942b"),
    "far": (dict(sp=FAR, rounds=10**9),
            "192c7d913bf2e6513253d5c18cf3385798d73aef3b167741773b7c7205a2b42c"),
}


@pytest.mark.parametrize("case", PINNED)
def test_tallies_pinned_at_fixed_seeds(case):
    """Reports are reproducible across versions, not only across calls.

    The SHA-256 of each report's JSON was recorded when dark counts
    became Poisson entries drawn beside the photons. The 400 km case's
    blocks hold about 1.7e8 rounds. Any change of the block sizes or of
    how a block consumes its random streams changes these digests; such
    a change must update them and say so in CHANGES.md.
    """
    kw, digest = PINNED[case]
    report = simulate(config(**kw), threads=2)
    assert hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest() == digest
