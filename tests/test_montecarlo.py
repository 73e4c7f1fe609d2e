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
    # p_d = 0.7 (dark mean -ln(0.3) = 1.2) each round draws whether it has one
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


def reference_rows(round_id, det, weight):
    """Clicked rounds, click masks and photon-parity masks by np.unique and
    np.add.at over an n x 4 array of counts per (round, detector)."""
    rows, row = np.unique(round_id, return_inverse=True)
    per_det = np.zeros((rows.size, 4), np.int64)
    np.add.at(per_det, (row, det), weight)
    bits = 1 << np.arange(4)
    return rows, (per_det > 0) @ bits, (per_det & 1) @ bits


def pack(round_id, det, weight):
    return round_id << 3 | det << 1 | weight & 1


@pytest.mark.parametrize("seed", range(4))
def test_row_reduction_matches_unique_reference(seed):
    # Few round ids, so that rounds and (round, detector) pairs repeat.
    # Weights: lone photons (1), bright counts odd and even (1..6) and dark
    # counts (2), which click without changing the parity.
    rng = np.random.default_rng(seed)
    size = 3_000
    cls, index = rng.integers(0, 64, size), rng.integers(0, 200, size)
    round_id = cls << montecarlo._ID_BITS | index
    det = rng.integers(0, 4, size)
    weight = rng.choice([1, 2, 2, 3, 4, 5, 6], size)
    got = montecarlo._rows(pack(round_id, det, weight))
    want = reference_rows(round_id, det, weight)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.unique(round_id << 2 | det, return_counts=True)[1].max() > 1


@pytest.mark.parametrize("sp", (
    SP,
    SystemParams(mu=20.0, l_km=0.0, eta_d=1.0),
    SystemParams(mu=0.84, l_km=100.0, p_d=0.02),
    SystemParams(mu=0.84, l_km=100.0, p_d=0.7),
    SystemParams(mu=0.0, p_d=0.0),
), ids=("near", "bright", "pd0.02", "pd0.7", "empty"))
def test_drawn_entries_reduce_like_unique_reference(sp):
    # the keys carry odd, not the weight: an odd key adds one, else two
    cfg = config(sp=sp)
    _, keys = montecarlo._draw_block(cfg, np.random.default_rng(3), 50_000)
    got = montecarlo._rows(keys)
    want = reference_rows(keys >> 3, keys >> 1 & 3, 2 - (keys & 1))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert (got[0].size == 0) == (sp.mu == sp.p_d == 0.0)


# Patterns by click mask (bit d for detector d): D1H = 1, D2H = 2, D1V = 4,
# D2V = 8. Event1 is a lone H click, Event2 an H+V pair at one port,
# Event3 at crossed ports.
EVENT_OF_MASK = {0b0001: 1, 0b0010: 1, 0b0101: 2, 0b1010: 2, 0b1001: 3, 0b0110: 3}
PATTERN_OF_MASK = {0b0001: ("h1", (0,)), 0b0010: ("h2", (1,)), 0b0101: ("h1v1", (0, 2)),
                   0b1010: ("h2v2", (1, 3)), 0b1001: ("h1v2", (0, 3)), 0b0110: ("h2v1", (1, 2))}
MASKS = (*EVENT_OF_MASK, 0b0000, 0b0111, 0b1111)


def expected_tallies(m, rows):
    """Per-row semantics of the protocol's tallies, written out row by row."""
    def bit(c, s):
        return c >> s & 1

    xx = [c for c in range(64) if bit(c, 5) and bit(c, 4)]
    zz = [c for c in range(64) if not bit(c, 5) and not bit(c, 4)]
    t = {name: 0 for name in montecarlo._COUNT_FIELDS}
    t["n_xx"], t["n_zz"] = int(m[xx].sum()), int(m[zz].sum())
    t["n_mixed"] = int(m.sum()) - t["n_xx"] - t["n_zz"]
    parity = {"plus_plus": {}, "plus_minus": {}}
    for rep, c in (("plus_plus", 0b110000), ("plus_minus", 0b110001)):
        parity[rep]["n"] = int(m[c])
        for name, dets in PATTERN_OF_MASK.values():
            cells = ("odd", "even") if len(dets) == 1 else ("oo", "oe", "eo", "ee")
            parity[rep][name] = dict.fromkeys(cells, 0)
    for c, clicks, odd, checked, flip_ph, flip_pol, eve in rows:
        event = EVENT_OF_MASK.get(clicks, 0)
        ka_ph, ka_pol, kb_ph, kb_pol = (bit(c, s) for s in (3, 2, 1, 0))
        wrong_ph = bit(clicks, 1) != (ka_ph ^ kb_ph)  # D2H announces odd phase
        wrong_pol = (ka_pol != kb_pol) if event == 2 else (ka_pol == kb_pol)
        if c in xx and event:
            t[f"n_event{event}"] += 1
            t[f"n_err{event}_ph"] += wrong_ph
            if event > 1:
                t[f"n_err{event}_pol"] += wrong_pol
            if checked:
                t["n_check_x_bits"] += 1 if event == 1 else 2
                t["n_check_x_err"] += wrong_ph != flip_ph
                t["n_check_x_err"] += event > 1 and wrong_pol != flip_pol
            else:
                t["n_key_events"] += 1
                t["n_eve_success"] += eve
        if c in zz and event == 1 and not ka_pol and not kb_pol:
            t["n_check_z_bits"] += 1
            t["n_check_z_err"] += wrong_ph != flip_ph
        if c in (0b110000, 0b110001) and clicks in PATTERN_OF_MASK:
            name, dets = PATTERN_OF_MASK[clicks]
            cell = "".join("o" if bit(odd, d) else "e" for d in dets)
            cell = {"o": "odd", "e": "even"}.get(cell, cell)
            parity["plus_plus" if c == 0b110000 else "plus_minus"][name][cell] += 1
    t["n_fail_xx"] = t["n_xx"] - t["n_event1"] - t["n_event2"] - t["n_event3"]
    t["parity"] = parity
    return t


@pytest.mark.parametrize("attack", ("none", "beam_split", "dishonest_bob"))
def test_tally_step_matches_row_semantics(attack):
    # Every class, every pattern plus 0-, 3- and 4-click masks, every parity
    # mask within the click mask, and every lottery draw the attack makes,
    # each row repeated a seeded 1 to 3 times.
    draws = {"none": [(0, 0, 0)], "beam_split": [(0, 0, 0), (0, 0, 1)],
             "dishonest_bob": [(a, b, 0) for a in (0, 1) for b in (0, 1)]}[attack]
    rows = [(c, clicks, odd, checked, *drawn)
            for c in range(64) for clicks in MASKS for odd in range(16) if odd & ~clicks == 0
            for checked in (0, 1) for drawn in draws]
    rng = np.random.default_rng(5)
    rows = [row for row in rows for _ in range(rng.integers(1, 4))]
    m = 10_000 + rng.integers(0, 1_000, 64)
    c, clicks, odd, checked, flip_ph, flip_pol, eve = (np.array(col) for col in zip(*rows))
    bits = {"dishonest_bob": dict(flip_ph=flip_ph == 1, flip_pol=flip_pol == 1),
            "beam_split": dict(eve=eve == 1), "none": {}}[attack]
    got = montecarlo._tally(config(attack=attack), m, c, clicks, odd, checked == 1, **bits)
    want = expected_tallies(m, rows)
    assert got == want
    assert min(got[k] for k in montecarlo._COUNT_FIELDS if k != "n_eve_success") > 0
    assert (got["n_eve_success"] > 0) == (attack == "beam_split")


def test_module_arrays_stay_small():
    # module-level tables live in every process that imports the package
    sizes = {name: value.nbytes for name, value in vars(montecarlo).items()
             if isinstance(value, np.ndarray)}
    assert "_TABLES" in sizes
    assert max(sizes.values()) <= 16 * 1024, sizes
