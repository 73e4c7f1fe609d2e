"""Simulation invariants: reproducibility, partitioning, attack wiring.

Statistical assertions use generous sigma margins at fixed seeds so
they stay deterministic.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualqss import montecarlo
from dualqss.detectors import ClickParity, SystemParams, exclusive_pattern_prob
from dualqss.montecarlo import (
    SimConfig,
    _block_sizes,
    _draw_tables,
    compare_to_analytic,
    max_abs_sigma,
    min_p_tail,
    p_tail,
    simulate,
    simulate_beam_split,
    simulate_dishonest_bob,
)
from dualqss.optics import PolPairing, detector_amplitudes, intensities

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
    # at 400 km a block holds the most rounds, 2^53, so this run has eight
    cfg = config(sp=FAR, rounds=7 * 10**16)
    assert _block_sizes(cfg, _draw_tables(cfg)) == [2**53] * 7 + [7 * 10**16 - 7 * 2**53]
    assert simulate(cfg, threads=1).to_dict() == simulate(cfg, threads=3).to_dict()


@pytest.mark.parametrize("cfg", (
    config(sp=FAR, rounds=10**9),
    config(sp=FAR, rounds=10**9 + 7, basis_policy=1.0),
    config(sp=SystemParams(mu=0.4, l_km=300.0), rounds=123_456_789),
    config(rounds=1_100_000),
    config(rounds=1),
    config(sp=FAR, rounds=7 * 10**16),
    config(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=30_000),
), ids=("far", "far-odd", "300km", "near", "one", "far-blocks", "bright"))
def test_block_sizes_partition_rounds_whatever_the_threads(cfg, monkeypatch):
    sizes = _block_sizes(cfg, _draw_tables(cfg))
    assert sum(sizes) == cfg.rounds and all(s > 0 for s in sizes)
    real = montecarlo._block_tallies
    seen = []
    monkeypatch.setattr(montecarlo, "_block_tallies",
                        lambda c, t, block, size: seen.append((block, size)) or real(c, t, block, size))
    for threads in (1, 2, 3):
        seen.clear()
        simulate(cfg, threads=threads)
        assert sorted(seen) == list(enumerate(sizes))


@pytest.mark.parametrize("cfg, pooled", (
    (config(sp=FAR, rounds=5 * 10**16), False),
    (config(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=50_000, basis_policy=1.0), True),
), ids=("far", "bright"))
def test_light_blocks_run_on_the_calling_thread(cfg, pooled, monkeypatch):
    # Six far blocks of about 20 rows each ran 2 to 2.7 times slower on a
    # pool of two than on the caller, so these six, of about 7, stay there;
    # seven bright blocks of 8k rows each gain from the pool. The report is
    # the same either way.
    real, idents = montecarlo._block_tallies, []
    monkeypatch.setattr(montecarlo, "_block_tallies",
                        lambda *args: idents.append(threading.get_ident()) or real(*args))
    serial = simulate(cfg)
    assert set(idents) == {threading.get_ident()}
    idents.clear()
    assert simulate(cfg, threads=2) == serial
    assert len(idents) == {False: 6, True: 7}[pooled]
    assert (threading.get_ident() not in idents) == pooled


def test_light_calls_load_no_pool_module():
    # A pool is built, and concurrent.futures imported, only for calls whose
    # blocks carry the rows that pay for it: importing the package and its
    # CLI, then a light six-block far run at two threads, leave it unloaded.
    code = ("import sys, dualqss, dualqss.cli\n"
            "cfg = dualqss.SimConfig(sp=dualqss.SystemParams(l_km=400.0), rounds=5 * 10**16, seed=1)\n"
            "dualqss.simulate(cfg, threads=2)\n"
            "print('concurrent.futures' in sys.modules)")
    paths = (str(Path(montecarlo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_analytic_calls_load_no_numpy_random():
    # Streams seed from cached words through a seed sequence defined on first
    # use: importing the package and its CLI, then a sweep, leave numpy.random
    # unloaded (loading it costs 1-2 MB of peak memory), and the first
    # simulate loads it.
    code = ("import sys, dualqss, dualqss.cli\n"
            "spec = dualqss.SweepSpec(variable=dualqss.SweepVariable.DISTANCE, lo=0.0, hi=400.0,\n"
            "                         step=50.0, fixed=dualqss.SystemParams())\n"
            "dualqss.sweep(spec)\n"
            "print('numpy.random' in sys.modules)\n"
            "dualqss.simulate(dualqss.SimConfig(sp=dualqss.SystemParams(), rounds=1000, seed=1))\n"
            "print('numpy.random' in sys.modules)")
    paths = (str(Path(montecarlo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\nTrue\n"


@pytest.mark.parametrize("seed", (0, 2026, 2**64 + 1))
def test_streams_are_default_rng_streams(seed):
    # a block's stream is the one np.random.default_rng makes of its seed
    # sequence, whatever way it is built: built twice, the second time from
    # the cached seed words, after the first stream has drawn; the words are
    # kept once per (seed, kind, block), read-only, in a bounded cache
    montecarlo._seed_words.cache_clear()
    for kind, block in itertools.product((0, 1), (0, 5)):
        for _ in range(2):
            got = montecarlo._stream(config(seed=seed), kind, block)
            want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(kind, block)))
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.integers(0, 2**63, 64), want.integers(0, 2**63, 64))
            assert np.array_equal(got.multinomial(10**9, [0.25] * 4), want.multinomial(10**9, [0.25] * 4))
        with pytest.raises(ValueError, match="read-only"):
            got.bit_generator.seed_seq.words[0] = 0
    hits, misses, maxsize, size = montecarlo._seed_words.cache_info()
    assert (hits, misses, size) == (4, 4, 4)
    assert 4 <= maxsize < math.inf


def test_streams_are_default_rng_streams_when_threads_share_the_cache():
    # more threads than cores build the same few streams while the cache is
    # cleared under them, switching often: every stream still starts where
    # default_rng's does
    keys = [(seed, kind, block) for seed in (3, 4) for kind in (0, 1) for block in (0, 1)]
    want = {key: np.random.default_rng(np.random.SeedSequence(entropy=key[0], spawn_key=key[1:]))
            .bit_generator.state for key in keys}
    wrong = []

    def build(shift):
        for i in range(400):
            seed, kind, block = keys[(i + shift) % len(keys)]
            if montecarlo._stream(config(seed=seed), kind, block).bit_generator.state != want[seed, kind, block]:
                wrong.append((seed, kind, block))
            if i % 50 == shift:
                montecarlo._seed_words.cache_clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(shift,)) for shift in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []


def test_draw_tables_are_built_once_per_configuration(monkeypatch):
    # Equal configurations share one set of tables: _strata runs once for
    # them, whatever the worker count, and every block of a multi-block far
    # run reads that one object. A changed mu_arm, p_d or basis_policy
    # builds them again; the seed, rounds, lottery and attack do not. The
    # blocks' arrays are summed, so each call is still tallied once, not
    # once per block.
    montecarlo._tables.cache_clear()
    strata, read, tallied = [], [], []
    real_strata, real_block, real_tally = montecarlo._strata, montecarlo._block_tallies, montecarlo._tally
    monkeypatch.setattr(montecarlo, "_strata", lambda lam: strata.append(lam) or real_strata(lam))
    monkeypatch.setattr(montecarlo, "_block_tallies",
                        lambda c, t, block, size: read.append(t) or real_block(c, t, block, size))
    monkeypatch.setattr(montecarlo, "_tally", lambda *args: tallied.append(args) or real_tally(*args))
    cfg = config(sp=FAR, rounds=7 * 10**16)
    calls, tables = 0, set()
    for threads in (1, 2, 3):
        for _ in range(2):
            read.clear()
            simulate(replace(cfg, sp=replace(cfg.sp)), threads=threads)  # equal, not the same objects
            calls += 1
            assert len(strata) == 1 and len(tallied) == calls
            assert len(read) == 8 and all(t is read[0] for t in read)
            tables.add(id(read[0]))
    assert len(tables) == 1
    for same in (replace(cfg, seed=9, rounds=10**6, check_fraction=0.3, attack="beam_split"),
                 replace(cfg, sp=replace(FAR, f=1.3), attack="dishonest_bob", flip_fraction=0.2)):
        simulate(same)
        assert len(strata) == 1 and read[-1] is read[0]
    for changed in (replace(cfg, sp=replace(FAR, mu=0.85)), replace(cfg, sp=replace(FAR, l_km=399.0)),
                    replace(cfg, sp=replace(FAR, p_d=1e-7)), replace(cfg, basis_policy=1.0)):
        built = len(strata)
        simulate(changed)
        assert len(strata) == built + 1 and id(read[-1]) not in tables
        tables.add(id(read[-1]))
    assert len(tallied) == calls + 6


def run_and_compare(cfg):
    """The report and comparison rows of ``cfg`` as JSON, which shows -0.0."""
    report = simulate(cfg)
    return json.dumps(report.to_dict()), json.dumps(compare_to_analytic(report))


@pytest.mark.parametrize("signs", ((0.0, -0.0), (-0.0, 0.0)), ids=("zero-first", "negative-first"))
def test_results_do_not_depend_on_the_call_history(signs):
    # Cached tables and closed forms are keyed on the values they read,
    # with signed zeros apart: p_d = -0.0 gives -0.0 probabilities in the
    # rows. Whichever sign runs first, each run equals a run from cleared
    # caches, the beam-splitting run's eve_leak row included.
    configs = [config(sp=SystemParams(p_d=p_d), attack=attack, check_fraction=0.3)
               for p_d in signs for attack in ("none", "beam_split")]
    warm = [run_and_compare(cfg) for cfg in configs]
    cold = []
    for cfg in configs:
        montecarlo._tables.cache_clear()
        montecarlo._closed_forms.cache_clear()
        cold.append(run_and_compare(cfg))
    assert warm == cold
    assert warm[0][1] != warm[2][1]  # the rows show the sign of p_d
    for _, rows in warm:
        names = [row["name"] for row in json.loads(rows)]
        assert len(names) == 48 + ("eve_leak" in names) and len(set(names)) == len(names)
    assert ["eve_leak" in rows for _, rows in warm] == [False, True, False, True]


@pytest.mark.parametrize("sp", (SP, SystemParams(p_d=1.0)), ids=("near", "pd1"))
def test_cached_tables_are_read_only(sp):
    tables = _draw_tables(config(sp=sp))
    arrays = [array for array in tables if isinstance(array, np.ndarray)]
    assert len(arrays) == (10 if sp.p_d < 1.0 else 4)  # at p_d = 1 the weights are the categories' probabilities
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    forms = montecarlo._closed_forms(sp.mu_arm, sp.p_d, 0.5)
    assert isinstance(forms, tuple) and all(isinstance(form, tuple) for form in forms)


@pytest.mark.parametrize("kw, rounds, block", (
    (dict(sp=SystemParams(mu=0.4, l_km=100.0), basis_policy=1.0), 3 * 10**13, 10_958_494_428_769),
    (dict(sp=SystemParams(mu=0.84, l_km=100.0)), 5 * 10**12, 1_821_710_698_587),
    (dict(sp=SystemParams(mu=1.5, l_km=100.0), basis_policy=0.0), 10**12, 227_401_824_141),
    (dict(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0)), 1_100_000, 26_215),
    (dict(sp=SystemParams(mu=0.84, l_km=100.0, p_d=0.02)), 2 * 10**10, 5_593_010_360),
    (dict(sp=SystemParams(mu=0.84, l_km=100.0, p_d=0.7)), 1_100_000, 36_827),
    (dict(sp=SystemParams(p_d=1.0)), 10**15, 10**15),
    (dict(sp=FAR, basis_policy=1.0), 10**17, 2**53),
), ids=("100km-mu0.4", "100km", "100km-z", "bright", "pd0.02", "pd0.7", "pd1", "400km"))
def test_blocks_expect_a_fixed_number_of_multi_entry_rounds(kw, rounds, block):
    # A block expects about _BLOCK_ROWS rows, rounds of four or more entries
    # in a class the tally reads, up to 2^53 rounds: nearly every read round
    # when bright, 71% of them at p_d = 0.7 (at basis_policy 0.5, 5 in 16
    # rounds are read), one in 2e8 at 100 km, one in 6e19 at 400 km, where a
    # block holds none of them. At p_d = 1 every round is a count, so one
    # block holds them all.
    cfg = config(rounds=rounds, **kw)
    sizes = _block_sizes(cfg, _draw_tables(cfg))
    assert sizes == [block] * (rounds // block) + [rounds % block] * (rounds % block > 0)
    if cfg.sp.p_d < 1.0:
        lam = montecarlo._cell_means(cfg.sp.mu_arm, cfg.sp.p_d).sum(axis=1)
        read = [c for c in range(64) if c >> 4 == 3 or c >> 4 == 0 and not c & 0b0101]  # XX, or ZZ in H
        p_multi = montecarlo._class_weights(cfg.basis_policy)[read] @ montecarlo._strata(lam)[read, 4]
        assert block == min(montecarlo._MAX_BLOCK, math.ceil(montecarlo._BLOCK_ROWS / p_multi))


def test_dark_source_is_one_block_of_any_size():
    cfg = SimConfig(sp=SystemParams(mu=0.0, p_d=0.0), rounds=10**12, seed=2)
    assert _block_sizes(cfg, _draw_tables(cfg)) == [10**12]
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


CRITERION_8 = [SystemParams(mu=mu, l_km=l_km) for mu in (0.4, 0.84, 1.5) for l_km in (100.0, 400.0)]


@pytest.mark.parametrize("sp", CRITERION_8 + [
    SystemParams(mu=0.84, l_km=100.0, p_d=0.02),
    SystemParams(p_d=1.0),
    SystemParams(mu=20.0, l_km=0.0, eta_d=1.0),
], ids=[f"mu{sp.mu}-{sp.l_km:.0f}km" for sp in CRITERION_8] + ["pd0.02", "pd1", "mu20"])
def test_parity_rows_are_exclusive_pattern_probabilities(sp):
    # The comparison computes each detector's terms once per encoding; every
    # parity row must still be exactly what the one-pattern function gives.
    rows = {r["name"]: r for r in compare_to_analytic(simulate(config(sp=sp, rounds=1000)))}
    parity = {"o": ClickParity.ODD, "e": ClickParity.EVEN}
    checked = 0
    for pairing in PolPairing:
        ints = intensities(detector_amplitudes(pairing.representative(), sp.mu_arm))
        for name, dets in PATTERN_OF_MASK.values():
            for cell in (("odd", "even") if len(dets) == 1 else ("oo", "oe", "eo", "ee")):
                pars = [parity[c] for c in (cell[0] if len(dets) == 1 else cell)]
                row = rows[f"parity_{pairing.name.lower()}_{name}_{cell}"]
                assert row["p_analytic"] == exclusive_pattern_prob(dets, ints, sp.p_d, pars), row
                checked += 1
    assert checked == sum(name.startswith("parity_") for name in rows) == 40


def test_rounds_needed_follow_the_closed_forms():
    # At basis_policy 0.5 a round is an X-basis trial with probability 1/4
    # and a representative encoding with 1/64; an X-basis event is a key
    # event (one of Eve's trials) unless checked, with probability 0.7.
    rows = compare_to_analytic(simulate_beam_split(config(check_fraction=0.3)))
    p = {r["name"]: r["p_analytic"] for r in rows}
    gain = p["q_event1"] + p["q_event2"] + p["q_event3"]
    for row in rows:
        name = row["name"]
        p_round = row["p_analytic"] * (
            0.25 if name.startswith("q_event") else
            0.25 * p["q_" + name.split("_")[1]] if name.startswith("qber_") else
            1 / 64 if name.startswith("parity_") else 0.25 * gain * 0.7)
        if p_round == 0.0:
            assert row["rounds_needed"] is None, name
        else:
            need = 10.0 / p_round
            assert need * (1 - 1e-12) <= row["rounds_needed"] < need * (1 + 1e-12) + 1, name
    assert sum(row["rounds_needed"] is None for row in rows) == 16
    assert "eve_leak" in p


def rows_against(report, *forms):
    """``compare_to_analytic``'s rows of ``report`` against the closed forms
    ``forms``, (name, p_analytic, p_trial) in row order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_closed_forms", lambda *args: forms)
        return compare_to_analytic(report)


def test_rounds_needed_at_their_edges():
    # no expected count, or one so small that the rounds overflow a float;
    # rounds that expect exactly 10 counts need themselves
    report = simulate(config(rounds=1000))
    for rounds, p, need in ((10**7, 0.0, None), (1, 5e-324, None), (10**7, 1e-6, 10**7)):
        (row,) = rows_against(replace(report, rounds=rounds), ("q_event1", p, 1.0))
        assert row["rounds_needed"] == need and type(row["rounds_needed"]) is type(need), (rounds, p)
    # without dark counts, a double click at mu = 1e-160 has a closed form of
    # about 1e-322 a round: the rounds it needs overflow a float
    rows = compare_to_analytic(simulate(config(sp=SystemParams(mu=1e-160, l_km=0.0, p_d=0.0), rounds=1)))
    tiny = [row for row in rows if 0.0 < row["p_analytic"] < 1e-300]
    assert tiny and all(row["rounds_needed"] is None for row in tiny)


def informative(rows):
    return [r for r in rows if r["informative"]]


def test_rows_flag_their_evidence():
    rows = compare_to_analytic(simulate(config(basis_policy=1.0)))
    assert all(r["informative"] == (r["expected"] >= 10.0) for r in rows)
    assert 0 < len(informative(rows)) < len(rows)


def fraction_tails(n, p):
    """The two-sided tails of p_tail for every count, from exact integer sums
    over every outcome: pmf(k) den^n = C(n, k) num^k (den - num)^(n - k)."""
    num, den = Fraction(p).as_integer_ratio()
    pmf = [math.comb(n, k) * num**k * (den - num) ** (n - k) for k in range(n + 1)]
    total, lower = den**n, list(itertools.accumulate(pmf))
    return [Fraction(min(total, 2 * min(low, total - low + mass)), total)
            for low, mass in zip(lower, pmf)]


@pytest.mark.parametrize("n", (1, 2, 7, 30, 64))
@pytest.mark.parametrize("p", (0.5, 0.3, 0.02, 3.6e-9, 1e-300, 0.97, 1 - 2**-40))
def test_p_tail_matches_exact_fraction_sums(n, p):
    for count, want in enumerate(fraction_tails(n, p)):
        got = p_tail(count, n, p)
        if want > Fraction(1, 10**300):
            assert abs(Fraction(got) - want) <= 1e-12 * want, (count, got, float(want))
        else:  # beyond the float range the tail is 0 or subnormal
            assert 0.0 <= got < 1e-290, (count, got)
    assert p_tail(0, 0, 0.3) == p_tail(0, 5, 0.0) == p_tail(5, 5, 1.0) == 1.0
    assert p_tail(1, 5, 0.0) == p_tail(4, 5, 1.0) == 0.0


@pytest.mark.parametrize("n, p", ((10**18, 0.5), (10**16, 1e-5), (10**12, 0.3)))
@pytest.mark.parametrize("z", (-6.0, -1.0, 1.0, 3.0, 6.0))
def test_p_tail_meets_the_normal_tail(n, p, z):
    # At large n p (1 - p) the tail is the normal one with continuity
    # correction, up to a skewness term of order z^3 (1 - 2p) / sigma: at
    # p = 0.5 that vanishes and n = 1e18 leaves only rounding.
    mean, sd = Fraction(p) * n, math.sqrt(n * p * (1.0 - p))
    count = math.floor(mean + Fraction(z * sd))
    normal = math.erfc(float(abs(count - mean) - Fraction(1, 2)) / sd / math.sqrt(2.0))
    tol = 1e-12 if p == 0.5 else 2.0 * abs(z) ** 3 * abs(1.0 - 2.0 * p) / sd
    assert abs(p_tail(count, n, p) - normal) <= tol * normal


def test_p_tail_stays_finite_at_the_extremes():
    # n up to 1e18 and p down to the smallest float: one count against
    # n p = 1e-282 expected has a tail of 2 n p
    for p in (1e-300, 5e-324):
        assert p_tail(0, 10**18, p) == 1.0
        assert p_tail(1, 10**18, p) == pytest.approx(2e18 * p, rel=1e-12)
        assert p_tail(3, 10**18, p) == 0.0  # (n p)^3 / 3 underflows
    for count in (0, 10**18 - 1, 10**18):
        assert 0.0 <= p_tail(count, 10**18, 1.0 - 2**-53) <= 1.0
    assert p_tail(np.int64(1), np.int64(10**18), 1e-300) == p_tail(1, 10**18, 1e-300)


@pytest.mark.parametrize("count, n, p", ((-1, 5, 0.5), (6, 5, 0.5), (1.5, 5, 0.5), (1, 5.0, 0.5),
                                         (1, 5, -0.1), (1, 5, 1.5), (1, 5, float("nan"))))
def test_p_tail_rejects_impossible_rows(count, n, p):
    with pytest.raises(ValueError, match="must be"):
        p_tail(count, n, p)


def test_p_tail_weighs_rare_rows_that_sigma_overstates():
    # one count against 0.036 expected reads 5.1 sigma, yet its tail is 7%
    n, p = 10**7, 3.6e-9
    (row,) = rows_against(replace(simulate(config(rounds=1000)), n_event1=1, n_xx=n), ("q_event1", p, 1.0))
    assert row["sigma"] > 5.0
    assert p_tail(1, n, p) == pytest.approx(2.0 * -math.expm1(-n * p), rel=1e-6)
    rows = compare_to_analytic(simulate(config(basis_policy=1.0)))
    assert min_p_tail(rows) == min(p_tail(r["count"], r["n"], r["p_analytic"]) for r in rows)
    assert 0.0 < min_p_tail(rows) < 1.0


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
    QBER rows stay uninformative here; see the 1e15-round test below.
    Criterion 8 keeps its 1e7 rounds.
    """
    cfg = SimConfig(sp=SystemParams(mu=1.5, l_km=400.0), rounds=5 * 10**10, seed=2026,
                    basis_policy=1.0)
    rows = {r["name"]: r for r in compare_to_analytic(simulate(cfg))}
    for name in ("q_event1", "q_event2", "q_event3", "qber_event1_ph"):
        assert rows[name]["informative"], name
        assert abs(rows[name]["sigma"]) < 5.0, name


@pytest.mark.parametrize("mu", (0.84, 1.5))
def test_far_double_clicks_match_closed_forms(mu):
    """The headline evidence at 400 km: at 1e15 rounds every Event2/3 gain
    and QBER row expects at least 10 counts, and each is within 5 sigma.

    Their errors need a dark count besides the photons, so the QBER rows
    need 1e13 to 4e13 rounds for 10 expected errors. Only rounds of three
    or more entries are rows, about 3 (mu = 0.84) and 14 (mu = 1.5) here.
    """
    cfg = SimConfig(sp=SystemParams(mu=mu, l_km=400.0), rounds=10**15, seed=2026, basis_policy=1.0)
    rows = {r["name"]: r for r in compare_to_analytic(simulate(cfg))}
    for name in ("q_event2", "q_event3", "qber_event2_ph", "qber_event2_pol", "qber_event3_ph",
                 "qber_event3_pol"):
        assert rows[name]["informative"], name
        assert abs(rows[name]["sigma"]) < 5.0, name


@pytest.mark.parametrize("mu", (0.84, 1.5))
def test_far_parity_cells_match_closed_forms(mu):
    """The double clicks behind the headline claim at 400 km, cell by cell:
    at 5e16 rounds every Event2/3 gain, QBER and parity row that the closed
    forms allow (p > 0) expects at least 10 counts and is within 5 sigma.

    The rarest, the ee cells, need about 2.5e16 rounds. Two-entry rounds are
    counts, so these rounds are six blocks of about 20 rows each.
    """
    cfg = SimConfig(sp=SystemParams(mu=mu, l_km=400.0), rounds=5 * 10**16, seed=2026,
                    basis_policy=1.0)
    rows = compare_to_analytic(simulate(cfg))
    double = [r for r in rows if r["name"].startswith(("q_event2", "q_event3", "qber_event2",
                                                       "qber_event3"))
              or r["name"].split("_")[-2] in ("h1v1", "h2v2", "h1v2", "h2v1")]
    assert len(double) == 38 and sum(r["p_analytic"] == 0.0 for r in rows) == 16
    for row in double:
        if row["p_analytic"] > 0.0:
            assert row["informative"] and abs(row["sigma"]) < 5.0, row


def test_bright_cells_match_closed_forms_for_any_worker_count():
    # mean photon numbers up to ~29 per mode: nearly every round is a multi-entry row
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


def test_poisson_limit_is_exact_at_its_edge():
    # The check's closed form, mu_arm times the largest _UNIT_LAM row sum
    # plus four dark means, is the largest entry total of the draw tables
    # bit for bit, so the last intensity it accepts draws without numpy's
    # error, and the next float up is refused.
    unit, lam_max = montecarlo._UNIT_SUM_MAX, montecarlo._POISSON_LAM_MAX
    mu = lam_max / unit
    while mu * unit > lam_max:
        mu = math.nextafter(mu, 0.0)
    while math.nextafter(mu, math.inf) * unit <= lam_max:
        mu = math.nextafter(mu, math.inf)
    edge = SystemParams(mu=mu, l_km=0.0, eta_d=1.0)
    for sp in (edge, replace(SP, p_d=0.02), SystemParams(mu=20.0, l_km=0.0, eta_d=1.0, p_d=0.7)):
        cfg = SimConfig(sp=sp, rounds=10, seed=1)
        assert _draw_tables(cfg).lam.max() == sp.mu_arm * unit - 4.0 * math.log1p(-sp.p_d)
        assert simulate(cfg).rounds == 10
    with pytest.raises(ValueError, match="mu = "):
        SimConfig(sp=replace(edge, mu=math.nextafter(mu, math.inf)), rounds=10, seed=1)


def test_rounds_stay_within_the_int64_tallies():
    # the blocks' arrays are summed as int64: 2^63 rounds would wrap
    with pytest.raises(ValueError, match=r"rounds must be below 2\*\*63"):
        config(rounds=2**63)
    # 1,024 blocks of 2^53 rounds, every round a four-click count
    rep = simulate(config(sp=SystemParams(p_d=1.0), rounds=2**63 - 1))
    assert rep.n_xx + rep.n_zz + rep.n_mixed == 2**63 - 1


def test_config_accepts_numpy_integers():
    cfg = config(rounds=np.int64(1000), seed=np.uint32(3))
    assert simulate(cfg).rounds == 1000
    # an unsigned count must not wrap while it is split into blocks
    assert simulate(config(rounds=np.uint32(1_200_000))).rounds == 1_200_000


def test_float32_parameters_are_stored_as_floats():
    # A numpy float is stored as the float that check_range returns, so the
    # report serialises, equals the report of the plain floats and shares
    # their cached draw tables; rounds stays an integer.
    plain = config(basis_policy=0.5, check_fraction=0.25, flip_fraction=0.5, attack="dishonest_bob")
    single = replace(plain, basis_policy=np.float32(0.5), check_fraction=np.float32(0.25),
                     flip_fraction=np.float32(0.5))
    montecarlo._tables.cache_clear()
    want = simulate(plain)
    got = simulate(single)
    assert montecarlo._tables.cache_info()[:2] == (1, 1)  # (hits, misses): the second call reused the first's
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()) and got == want
    assert {type(getattr(single, name)) for name in ("basis_policy", "check_fraction", "flip_fraction")} == {float}
    assert type(single.rounds) is int


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
             "4daf0b99beab7d371cda676e3bf1cef5541fda6932879df546c5145ea83fb56c"),
    "bright": (dict(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=600_000, seed=17),
               "e0a30e309289e7514ba359c18013515ea0ff3e1b65c5657bdd8058458d7688e7"),
    "dark": (dict(sp=SystemParams(mu=0.84, l_km=100.0, p_d=0.02), rounds=600_000, seed=13),
             "d8fd438c727b994309033175606b2f41aaf4d2420cf5e5be2536020c414e80ce"),
    "checked-none": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05),
                     "805b3ba676e5884e3a6c2d50b8e67de5d6d6faa49c2cdf1d3c80a43610ea98a2"),
    "checked-beam_split": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                attack="beam_split"),
                           "b05097f18ebccd1f798343d2ac061671642b0716829b1abce648dc019afef63b"),
    "checked-dishonest_bob": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                   attack="dishonest_bob"),
                              "79db61772c07a1cce16d057e7d54964d22b06a85cb56f486882fc51078521751"),
    "far": (dict(sp=FAR, rounds=10**9),
            "ba1841c2df2f4c8647b421333f30e715d1c2957863e7fefe7ef0761f2b6ce70a"),
    "near-x": (dict(rounds=1_100_000, basis_policy=1.0),
               "ca4f4209cf57c73c9ea51622165c901d4f1755533ad75948ec66495f5cade8eb"),
    "checked-beam_split-x": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                  attack="beam_split", basis_policy=1.0),
                             "bda6da5ecb49d6c33a5e76548fbc787678aeef7851d6a98469092b42632ce7d9"),
    "bright-x": (dict(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=60_000, seed=17, basis_policy=1.0),
                 "7516de26395cfc2c82dfdcb66d28818b55ca61613f552506a96d8a1b338ef156"),
}


@pytest.mark.parametrize("case", PINNED)
def test_tallies_pinned_at_fixed_seeds(case):
    """Reports are reproducible across versions, not only across calls.

    The SHA-256 of each report's JSON was recorded when two-entry rounds
    became counts over cell pairs (only rounds of three or more entries as
    rows), and the checked cases again when the lottery came to split the
    tally's atoms instead of its cells; each is the same for 1 and 2
    threads. The bright cases span 23 blocks (8 at basis_policy 1), the
    others one each. They were recorded again, all but the basis_policy 1
    cases, when rounds of classes that no tally reads stopped being split
    into cells, and blocks came to count only the rows they draw, all ten
    when a block came to draw one multinomial over its joint categories
    (module docstring), and all ten again when rounds of three entries
    became categories of a second draw over the row table, so that only
    rounds of four or more are rows. Any change of the block sizes or of
    how a block consumes its random streams changes these digests; such a
    change must update them and say so in CHANGES.md.
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


def entries(counts, bits, odd_bits):
    """Rows of entry counts per cell as (round, detector, weight) entries,
    from each cell's detector bit and parity bit (0 for a dark count). A
    dark cell weighs twice its count: it clicks without changing the
    photon parity."""
    round_id, cell = np.nonzero(counts)
    det = np.log2(bits[round_id, cell]).astype(np.int64)
    return round_id, det, counts[round_id, cell] * (1 + (odd_bits[round_id, cell] == 0))


@pytest.mark.parametrize("seed", range(4))
def test_row_reduction_matches_unique_reference(seed):
    # Eight cells per row (j = dark << 2 | detector) in a seeded order per
    # row, as the draw step orders them by mean; counts 0 to 5, many cells
    # and some rows empty, so that detectors see photons and dark counts
    # together.
    rng = np.random.default_rng(seed)
    size = 3_000
    order = rng.permuted(np.tile(np.arange(8), (size, 1)), axis=1)
    counts = rng.integers(0, 6, (size, 8)) * (rng.random((size, 8)) < 0.3)
    bits = 1 << (order & 3)
    odd_bits = np.where(order < 4, bits, 0)
    clicks, odd = montecarlo._rows(counts, bits, odd_bits)
    clicked = np.flatnonzero(clicks)
    want = reference_rows(*entries(counts, bits, odd_bits))
    assert all(np.array_equal(g, w) for g, w in zip((clicked, clicks[clicked], odd[clicked]), want))
    assert 0 < clicked.size < size
    round_id, det, _ = entries(counts, bits, odd_bits)
    assert np.unique(round_id << 2 | det, return_counts=True)[1].max() > 1


DRAWN = (
    (SP, 10**10),
    (SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), 50_000),
    (SystemParams(mu=0.84, l_km=100.0, p_d=0.02), 10**8),
    (SystemParams(mu=0.84, l_km=100.0, p_d=0.7), 50_000),
    (SystemParams(mu=0.0, p_d=0.0), 50_000),
)
DRAWN_IDS = ("near", "bright", "pd0.02", "pd0.7", "empty")


@pytest.mark.parametrize("sp, size", DRAWN, ids=DRAWN_IDS)
def test_drawn_entries_reduce_like_unique_reference(sp, size, monkeypatch):
    # The draw step's rows, as it reduces them, against the reference over
    # the same entries; each round holds four or more, and each lands in
    # the histogram.
    seen = []

    def rows(counts, bits, odd_bits, real=montecarlo._rows):
        seen.append((counts, bits, odd_bits, real(counts, bits, odd_bits)))
        return seen[-1][-1]

    monkeypatch.setattr(montecarlo, "_rows", rows)
    _, hist = montecarlo._draw(_draw_tables(config(sp=sp)), np.random.default_rng(3), size)
    if sp.mu == sp.p_d == 0.0:  # no round holds an entry, so the row stage is skipped
        assert seen == [] and not hist.any()
        return
    [(counts, bits, odd_bits, (clicks, odd))] = seen
    want = reference_rows(*entries(counts, bits, odd_bits))
    assert all(np.array_equal(g, w) for g, w in zip((np.arange(clicks.size), clicks, odd), want))
    assert (counts.sum(axis=1) >= 4).all()
    assert (hist.sum(axis=1).ravel() >= np.bincount(odd << 4 | clicks, minlength=256)).all()
    assert clicks.size > 0


class Recorder:
    """A generator that keeps every multinomial draw: (n, pvals, drawn)."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def multinomial(self, n, pvals):
        self.drawn.append((n, pvals, self.rng.multinomial(n, pvals)))
        return self.drawn[-1][-1]


def tuple_cells(t, c, n):
    """The distinct flat histogram indices of class c's ordered n-tuples of cells (i, j, ...), as
    the reference reduces them, in ascending order, each with the sum of its tuples' products
    q_i q_j ..., summed in row-major order from 0.0."""
    tuples = list(itertools.product(range(8), repeat=n))
    counts = np.array([np.bincount(entry, minlength=8) for entry in tuples])
    rounds, clicks, odd = reference_rows(*entries(counts, np.tile(t.bits[c], (len(counts), 1)),
                                                  np.tile(t.odd_bits[c], (len(counts), 1))))
    assert np.array_equal(rounds, np.arange(len(counts)))  # every such round clicks
    sums = {}
    for entry, cell in zip(tuples, ((odd << 6 | c) << 4 | clicks).tolist()):
        sums[cell] = sums.get(cell, 0.0) + math.prod(t.q[c, i] for i in entry)
    return sorted(sums.items())


def ascending(rows):
    """``rows`` of positive probability, stably in ascending order of it, as four columns."""
    rows = sorted((row for row in rows if row[0] > 0.0), key=lambda row: row[0])
    return [np.array([row[i] for row in rows]) for i in range(4)]


def row_categories(t, weights):
    """The row table of ``_tables`` before it is normalised, built class by class in loops:
    (probability, class, flat histogram index or ``_SPARE``, kind: three or multi). A read class
    has each distinct cell of its ordered triples (w (P3 s), s the sum of their q_i q_j q_k), then
    four or more entries (w P4)."""
    strata = montecarlo._strata(t.lam)
    rows = []
    for c in np.flatnonzero(montecarlo._READ).tolist():
        w, p3, p4 = weights[c], strata[c, 3], strata[c, 4]
        rows += [(w * (p3 * total), c, cell, "three") for cell, total in tuple_cells(t, c, 3)]
        rows.append((w * p4, c, montecarlo._SPARE, "multi"))
    return ascending(rows)


def joint_categories(t, weights, three):
    """The joint categories of ``_tables``, built class by class in loops: (probability, class,
    flat histogram index or ``_SPARE``, kind: class, none, one, pair or three). A class no tally
    reads is one category of its weight w; a read class has no entry (w P0), each one-entry cell
    i (w (P1 q_i)) and each distinct cell of its ordered pairs (i, j) (w (P2 s), s the sum of
    their q_i q_j); last, of class 64, come the rounds of three or more entries in a read class,
    of probability ``three``."""
    strata, spare = montecarlo._strata(t.lam), montecarlo._SPARE
    rows = []
    for c in range(64):
        w = weights[c]
        if not montecarlo._READ[c]:
            rows.append((w, c, spare, "class"))
            continue
        rows.append((w * strata[c, 0], c, spare, "none"))
        for n, kind in ((1, "one"), (2, "pair")):
            rows += [(w * (strata[c, n] * total), c, cell, kind) for cell, total in tuple_cells(t, c, n)]
    return ascending([*rows, (three, 64, spare, "three")])


@pytest.mark.parametrize("sp, size", DRAWN + ((FAR, 10**13),), ids=DRAWN_IDS + ("far",))
def test_drawn_pairs_reduce_like_unique_reference(sp, size):
    # A block draws one multinomial over its joint categories and, if it
    # drew rounds of three or more entries, one over the row table, both of
    # which match the loop-built ones bit for bit: a category's ordered pairs
    # or triples reduce through the reference to its cell (two photons in
    # one cell are an even count), and each category's probability is the
    # class weight times its stratum times q_i, or times the sum of q_i q_j
    # or q_i q_j q_k; the row table is normalised by its sum, the joint's
    # rounds of three or more. The class counts are the categories' sums by
    # class, and the categories leave in the histogram exactly the rows,
    # class by class.
    t = _draw_tables(config(sp=sp))
    weights = montecarlo._class_weights(0.5)
    row_p, row_cls, row_at, row_kind = row_categories(t, weights)
    total = row_p.sum()
    p, cls, at, kind = joint_categories(t, weights, total)
    assert np.array_equal(t.p, p) and t.three == (list(kind).index("three") if total > 0.0 else None)
    assert np.array_equal(t.p_rows, row_p / total)
    assert np.array_equal(t.cls, np.concatenate((cls, row_cls)))
    assert np.array_equal(t.at, np.concatenate((at, row_at)))
    assert np.array_equal(t.multi, p.size + np.flatnonzero(row_kind == "multi"))
    rng = Recorder(np.random.default_rng(3))
    m, hist = montecarlo._draw(t, rng, size)
    [(n, pvals, drawn), *rest] = rng.drawn
    assert n == size and pvals is t.p
    if t.three is not None and drawn[t.three]:
        [(n, pvals, rows), *rest] = rest
        assert n == drawn[t.three] and pvals is t.p_rows
        drawn = np.concatenate((drawn, rows))
    cls, at, kind = t.cls[:drawn.size], t.at[:drawn.size], np.concatenate((kind, row_kind))[:drawn.size]
    assert np.array_equal(m, np.bincount(cls, drawn, 65)[:64])
    rest_of_hist, cell = hist.ravel().copy(), at < montecarlo._SPARE
    np.subtract.at(rest_of_hist, at[cell], drawn[cell])
    multi = kind == "multi"
    assert rest_of_hist.min() >= 0 and np.array_equal(rest_of_hist.reshape(16, 64, 16).sum(axis=(0, 2)),
                                                      np.bincount(cls[multi], drawn[multi], 64))
    assert len(rest) == int(drawn[multi].any())  # the rows' cells, if any round has four or more
    # bright pulses leave almost no two-entry round; without light or dark counts no round holds an entry
    assert drawn[kind == "pair"].any() or sp.mu > 1.0 or sp.mu == sp.p_d == 0.0 and not hist.any()
    # three-entry rounds are drawn wherever they expect at least ten
    expected = size * row_p[row_kind == "three"].sum()
    assert drawn[kind == "three"].any() or expected < 10.0, expected


TABLE_CASES = [SystemParams(mu=mu, l_km=100.0, p_d=p_d) for mu in (0.0, 0.84, 20.0) for p_d in (0.0, 8e-8, 0.02, 0.7)]


@pytest.mark.parametrize("basis_policy", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("sp", TABLE_CASES, ids=lambda sp: f"mu{sp.mu:g}-pd{sp.p_d:g}")
def test_joint_categories_are_a_law_over_read_cells(sp, basis_policy):
    # The joint categories and the row table are each a law: every category
    # is possible, they sum to 1, and the last, whose count numpy takes as
    # the remainder, is the likeliest. Each class's categories of both, the
    # row table's weighted by the joint's rounds of three or more entries,
    # sum to its weight; its share of the row table is w P(N >= 3) over the
    # sum of those. Every histogram cell belongs to a read class and clicks
    # every detector whose photon parity it marks odd; a class no tally
    # reads is one category, which makes no cell, and rows are only of read
    # classes.
    t = _draw_tables(config(sp=sp, basis_policy=basis_policy))
    weights = montecarlo._class_weights(basis_policy)
    strata = montecarlo._strata(t.lam)
    three = weights * (strata[:, 3] + strata[:, 4]) * montecarlo._READ  # w P(N >= 3) in a read class
    laws = (t.p, t.p_rows) if t.three is not None else (t.p,)
    for p in laws:
        assert (p > 0.0).all() and abs(p.sum() - 1.0) <= 1e-12
        assert (np.diff(p) >= 0.0).all() and p[-1] == p.max()
    assert np.flatnonzero(t.cls == 64).tolist() == [t.three] * (len(laws) - 1)
    joint, rows = t.cls[:t.p.size], t.cls[t.p.size:]
    assert (t.p_rows.size == 0) == (t.three is None) and montecarlo._READ[rows].all()
    share = np.bincount(rows, t.p_rows, 64)
    by_class = np.bincount(joint, t.p, 65)[:64] + (t.p[t.three] * share if t.three is not None else 0.0)
    assert np.allclose(by_class, weights, rtol=1e-12, atol=0.0)
    if t.three is not None:
        assert np.allclose(share, three / three.sum(), rtol=1e-12, atol=0.0)
        assert np.isclose(t.p[t.three], three.sum(), rtol=1e-12, atol=0.0)
    cells = t.at[t.at < montecarlo._SPARE]
    assert montecarlo._READ[cells >> 4 & 63].all() and not (cells >> 10 & ~cells & 15).any()
    unread = ~np.append(montecarlo._READ, True)[joint]  # class 64 holds rounds of read classes
    assert (np.bincount(joint[unread], minlength=64) <= 1).all()
    assert (t.at[:t.p.size][unread] == montecarlo._SPARE).all()
    assert (t.multi >= t.p.size).all() and (t.at[t.multi] == montecarlo._SPARE).all()


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
    # each row repeated a seeded 1 to 3 times; the tally step sees them as
    # the histogram over (parity mask, class, click mask) that the draw
    # step produces and the lottery split over (lottery, atom) that the
    # lottery produces, each tallied cell's rows counted in its atom.
    draws = {"none": [(0, 0, 0)], "beam_split": [(0, 0, 0), (0, 0, 1)],
             "dishonest_bob": [(a, b, 0) for a in (0, 1) for b in (0, 1)]}[attack]
    rows = [(c, clicks, odd, checked, *drawn)
            for c in range(64) for clicks in MASKS for odd in range(16) if odd & ~clicks == 0
            for checked in (0, 1) for drawn in draws]
    rng = np.random.default_rng(5)
    rows = [row for row in rows for _ in range(rng.integers(1, 4))]
    m = 10_000 + rng.integers(0, 1_000, 64)
    c, clicks, odd, checked, flip_ph, flip_pol, eve = (np.array(col) for col in zip(*rows))
    lots = {"none": 2, "beam_split": 4, "dishonest_bob": 8}[attack]
    lottery = checked | (flip_ph | eve) << 1 | flip_pol << 2
    hist = np.bincount((odd << 6 | c) << 4 | clicks, minlength=1 << 14).reshape(16, 64, 16)
    atom_of = np.full(1024, -1)
    for atom, cells in enumerate(montecarlo._ATOM_CELLS):
        atom_of[list(cells)] = atom
    atom = atom_of[c << 4 | clicks]
    atoms = len(montecarlo._ATOM_CELLS)
    split = np.bincount((lottery * atoms + atom)[atom >= 0], minlength=lots * atoms).reshape(lots, atoms)
    got = montecarlo._tally(config(attack=attack), m, hist.reshape(-1).take(montecarlo._PARITY_AT), split)
    want = expected_tallies(m, rows)
    assert got == want
    assert min(got[k] for k in montecarlo._COUNT_FIELDS if k != "n_eve_success") > 0
    assert (got["n_eve_success"] > 0) == (attack == "beam_split")


def test_atoms_partition_the_tallied_cells():
    # Every cell with a non-zero truth-table row lies in exactly one atom,
    # whose row equals its own, and no other cell lies in any: Event1 by
    # phase error, Event2 and Event3 by phase and polarization error, and
    # the Z check by phase error. The block's flat indices read every
    # atom's cells over all 16 parity masks, atom by atom.
    tables, rows = montecarlo._TABLES, montecarlo._ATOM_TABLE
    cells = [cell for atom in montecarlo._ATOM_CELLS for cell in atom]
    assert sorted(cells) == np.flatnonzero(tables.any(axis=1)).tolist() and len(cells) == 104
    for atom, members in enumerate(montecarlo._ATOM_CELLS):
        assert all(np.array_equal(tables[cell], rows[atom]) for cell in members)
    assert rows.shape == (12, 10) and len({tuple(row) for row in rows.tolist()}) == 12
    read = [sorted(at.tolist()) for at in np.split(montecarlo._ATOM_AT, montecarlo._ATOM_STARTS[1:])]
    assert read == [sorted(odd << 10 | cell for odd in range(16) for cell in members)
                    for members in montecarlo._ATOM_CELLS]


def test_parity_cells_index_the_block_histogram():
    # Each of the 40 parity-cell indices, in row order, decodes in the
    # block histogram's flat layout (parity mask << 10 | class << 4 | click
    # mask) to the row's representative class (plus_plus, then plus_minus),
    # its pattern's click mask and a parity mask set exactly on the
    # detectors the cell marks Odd.
    cells = montecarlo._PARITY_CELLS
    at = montecarlo._PARITY_AT.tolist()
    assert len(cells) == 20 and len(at) == 40 and len(set(at)) == 40
    rows = [(rep, cell) for rep in (0b110000, 0b110001) for cell in cells]
    for index, (rep, (name, _, dets, classes)) in zip(at, rows):
        assert index >> 4 & 63 == rep
        assert PATTERN_OF_MASK[index & 15] == (name, tuple(map(int, dets)))
        assert index >> 10 == sum(1 << d for d, c in zip(dets, classes) if c is ClickParity.ODD)


def atom_sums(hist):
    """Rounds per atom of a histogram over (parity mask, class, click mask)."""
    cells = hist.sum(axis=0).reshape(-1)
    return np.array([cells[list(atom)].sum() for atom in montecarlo._ATOM_CELLS])


def lottery_split(monkeypatch, cfg, hist):
    """The block's draw step replaced by ``hist``: the lottery split that
    the block returns, and whether the protocol stream was left as the
    draw step left it."""
    seen = {}

    def draw(t, rng, size):
        seen["rng"], seen["state"] = rng, rng.bit_generator.state
        return np.zeros(64, np.int64), hist

    monkeypatch.setattr(montecarlo, "_draw", draw)
    _, _, split = montecarlo._block_tallies(cfg, _draw_tables(cfg), 0, 1)
    return split, seen["rng"].bit_generator.state == seen["state"]


@pytest.mark.parametrize("attack, lots", (("none", 2), ("beam_split", 4), ("dishonest_bob", 8)))
def test_lottery_splits_every_atom(attack, lots, monkeypatch):
    hist = np.random.default_rng(1).poisson(200.0, (16, 64, 16))
    cfg = config(attack=attack, check_fraction=0.3, flip_fraction=0.25)
    split, _ = lottery_split(monkeypatch, cfg, hist)
    assert split.shape == (lots, 12)
    assert np.array_equal(split.sum(axis=0), atom_sums(hist))
    # bit 0: checked; bit 1: flip_ph or Eve's success; bit 2: flip_pol
    leak = montecarlo.ie_dual(montecarlo.TapParams(mu=cfg.sp.mu, eta_t=cfg.sp.eta_t))
    probs = {"none": [0.3], "beam_split": [0.3, leak], "dishonest_bob": [0.3, 0.25, 0.25]}[attack]
    rounds = atom_sums(hist)
    for bit, p in enumerate(probs):
        drawn = split[[lot for lot in range(lots) if lot >> bit & 1]].sum(axis=0)
        assert (abs(drawn - rounds * p) < 5 * np.sqrt(rounds * p * (1 - p))).all(), bit
        assert abs(drawn.sum() - rounds.sum() * p) < 5 * math.sqrt(rounds.sum() * p * (1 - p)), bit


def test_lottery_draws_nothing_it_does_not_need(monkeypatch):
    # no check split when nothing is checked, and no attack stream without
    # an attack: the protocol stream is left as the draw step left it
    hist = np.random.default_rng(4).poisson(5.0, (16, 64, 16))
    split, untouched = lottery_split(monkeypatch, config(), hist)
    assert untouched and split.shape == (1, 12) and np.array_equal(split[0], atom_sums(hist))
    # a last layer of probability 0 adds no lots; one before a drawn layer keeps its bit
    for cfg, lots in ((config(attack="dishonest_bob", check_fraction=0.3), 2), (config(attack="beam_split"), 4)):
        split, _ = lottery_split(monkeypatch, cfg, hist)
        assert split.shape == (lots, 12) and np.array_equal(split.sum(axis=0), atom_sums(hist)), cfg.attack
    kinds = []
    real = montecarlo._stream
    monkeypatch.setattr(montecarlo, "_stream", lambda c, kind, block: kinds.append(kind) or real(c, kind, block))
    for attack in montecarlo.ATTACKS:
        cfg = config(attack=attack)
        montecarlo._block_tallies(cfg, _draw_tables(cfg), 0, 1000)
    assert kinds == [0, 0, 1, 0, 1]


def poisson_pmf(lam, k):
    # exact rational series term, rounded once, times a correctly rounded exponential
    return math.exp(-lam) * float(Fraction(lam) ** k / math.factorial(k))


@pytest.mark.parametrize("lam", (1e-12, 1e-6, 0.05, 1.0, 30.0))
def test_strata_to_full_relative_precision(lam):
    # P(N = 0) to P(N = 3) and P(N >= 4): at 400 km lam is about 2.5e-5,
    # where 1 - e^-lam (1 + lam + lam^2 / 2 + lam^3 / 6) would keep none of
    # its digits
    top = int(lam + 40 * math.sqrt(lam) + 40)
    want = (*(poisson_pmf(lam, k) for k in range(4)), math.fsum(poisson_pmf(lam, k) for k in range(4, top)))
    got = montecarlo._strata(np.array([lam, lam]))
    for stratum, value in enumerate(want):
        assert got[0, stratum] == got[1, stratum]
        assert abs(got[0, stratum] - value) <= 1e-14 * value, stratum


def multi_entry_totals_reference(rng, lam):
    """The rejection loop of ``_multi_entry_totals`` as first written, conditioned on N >= 4: each
    pass gathers its rows' lam twice."""
    n = np.empty(lam.size, np.int64)
    todo = np.arange(lam.size)
    while todo.size:
        small = lam[todo] <= 1.0
        x = rng.poisson(lam[todo]) + 4 * small
        keep = np.where(small, rng.random(todo.size) * x * (x - 1.0) * (x - 2.0) * (x - 3.0) < 24.0, x >= 4)
        n[todo[keep]] = x[keep]
        todo = todo[~keep]
    return n


@pytest.mark.parametrize("seed", range(8))
def test_multi_entry_totals_draw_as_the_reference_loop(seed):
    # Same totals, and the generator left in the same state, on mixed means
    # both sides of lam = 1, from a single row to many passes of rejections.
    size = (1, 2, 7, 60, 500, 3000)[seed % 6]
    lam = np.random.default_rng(seed).choice([0.01, 0.5, 1.0, 1.5, 4.0, 30.0], size=size)
    got, want = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
    assert np.array_equal(montecarlo._multi_entry_totals(got, lam), multi_entry_totals_reference(want, lam))
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("lam", (0.02, 0.5, 1.0, 1.4, 6.0))
def test_multi_entry_totals_follow_the_conditioned_poisson(lam):
    # Chi-square of 200k draws against Poisson(lam) given N >= 4, on both
    # sides of lam = 1 (the two rejection rules), in one call with a second
    # mean so that the rules run side by side; the bound is the chi-square
    # quantile at z = 5 (Wilson-Hilferty).
    other = 3.0 if lam <= 1.0 else 0.3
    n = montecarlo._multi_entry_totals(np.random.default_rng(21), np.repeat([lam, other], 200_000))
    assert n.min() >= 4
    n = n[:200_000]
    p_multi = montecarlo._strata(np.array([lam]))[0, 4]
    expected, observed, k = [], [], 4
    while (e := 200_000 * poisson_pmf(lam, k) / p_multi) >= 20:
        expected.append(e)
        observed.append(np.count_nonzero(n == k))
        k += 1
    expected.append(200_000 - sum(expected))
    observed.append(np.count_nonzero(n >= k))
    df = len(expected) - 1
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi2 < df * (1 - 2 / (9 * df) + 5 * math.sqrt(2 / (9 * df))) ** 3, (chi2, df)


@pytest.mark.parametrize("cfg, draws", (
    (config(sp=FAR, rounds=10**9, basis_policy=1.0), 1),
    (config(sp=SystemParams(mu=0.4, l_km=100.0), rounds=2 * 10**7, basis_policy=1.0), 2),
), ids=("400km", "100km-mu0.4"))
def test_blocks_without_four_entry_rounds_draw_no_rows(cfg, draws, monkeypatch):
    # Only rounds of four or more entries are rows: a block without one never
    # reaches _multi_entry_totals. At 400 km it draws the joint categories
    # alone; at 100 km (mu = 0.4) the second draw also splits its few rounds
    # of three entries over the row table.
    def refuse(rng, lam):
        raise AssertionError(f"{lam.size} rows drawn")

    streams, real_stream = [], montecarlo._stream
    monkeypatch.setattr(montecarlo, "_stream", lambda *args: streams.append(Recorder(real_stream(*args)))
                        or streams[-1])
    monkeypatch.setattr(montecarlo, "_multi_entry_totals", refuse)
    report = simulate(cfg)
    assert report.rounds == cfg.rounds and [len(stream.drawn) for stream in streams] == [draws]


@pytest.mark.parametrize("basis_policy", (0.0, 1.0), ids=("z", "x"))
def test_cells_of_mean_zero_never_receive_an_entry(basis_policy):
    # At p_d = 0 every dark cell has mean 0, and cancelled modes leave
    # photon cells of mean 0 (two in each X class, three in a Z class whose
    # senders share a polarization): such a detector never clicks. Bright
    # pulses make multi-entry rounds the rule.
    sp = SystemParams(mu=20.0, l_km=0.0, eta_d=1.0, p_d=0.0)
    cfg = config(sp=sp, basis_policy=basis_policy)
    m, hist = montecarlo._draw(_draw_tables(cfg), np.random.default_rng(7), 100_000)
    silent = (montecarlo._cell_means(sp.mu_arm, sp.p_d)[:, :4] == 0) @ (1 << np.arange(4))
    assert np.count_nonzero(silent[m > 0]) == (16 if basis_policy else 8)
    impossible = (np.arange(16) & silent[:, None]) != 0
    assert hist.sum() == (m * montecarlo._READ).sum() > 0
    assert hist[:, impossible].sum() == 0
    # an odd photon count is only ever seen at a detector that clicked
    odd_unclicked = (np.arange(16)[:, None] & ~np.arange(16)) != 0
    assert hist.transpose(0, 2, 1)[odd_unclicked].sum() == 0


def test_read_classes_are_the_x_and_checked_z_classes():
    # The tally reads the cells of classes with both senders in X (48-63),
    # and those of both senders in Z with both in the H mode (0, 2, 8, 10).
    assert np.flatnonzero(montecarlo._READ).tolist() == [0, 2, 8, 10, *range(48, 64)]


@pytest.mark.parametrize("sp", (SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), SystemParams(p_d=1.0)),
                         ids=("bright", "pd1"))
def test_unread_classes_are_counted_not_split(sp):
    # Mixed-basis and unchecked Z rounds keep their class counts, which n_zz
    # and n_mixed read, but no histogram cell: nothing reads their clicks.
    cfg = config(sp=sp)
    m, hist = montecarlo._draw(_draw_tables(cfg), np.random.default_rng(7), 100_000)
    assert m[~montecarlo._READ].sum() > 60_000
    assert not hist[:, ~montecarlo._READ].any()
    assert hist.sum(axis=(0, 2)).tolist() == (m * montecarlo._READ).tolist()


def test_memory_does_not_grow_with_rounds():
    # No array is sized by rounds or by one-entry rounds: 1e13 rounds at
    # 400 km hold about 2.5e8 one-entry rounds, 2e6 at 100 km about 48k.
    # Nor by blocks: 2^60 rounds at p_d = 1 are 128 blocks, each with 40
    # parity counts (320 bytes) and an 8-lot split of 768 bytes, summed as
    # they arrive rather than held as a list.
    for cfg in (config(sp=FAR, rounds=10**13, basis_policy=1.0), config(rounds=2_000_000),
                config(sp=SystemParams(p_d=1.0), rounds=2**60, attack="dishonest_bob", flip_fraction=0.1)):
        simulate(cfg)
        tracemalloc.start()
        try:
            simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (cfg.sp.l_km, peak)


def test_module_arrays_stay_small():
    # module-level tables live in every process that imports the package
    sizes = {name: value.nbytes for name, value in vars(montecarlo).items()
             if isinstance(value, np.ndarray)}
    assert "_TABLES" in sizes
    assert max(sizes.values()) <= 16 * 1024, sizes
