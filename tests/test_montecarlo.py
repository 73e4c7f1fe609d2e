"""Simulation invariants: reproducibility, partitioning, attack wiring.

Statistical assertions use generous sigma margins at fixed seeds so
they stay deterministic.
"""

import functools
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualqss import montecarlo
from dualqss.detectors import ClickParity, SystemParams, exclusive_pattern_prob
from dualqss.montecarlo import (
    SimConfig,
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
    # a block holds at most 2^53 rounds, so this run has eight
    cfg = config(sp=FAR, rounds=7 * 10**16)
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
    # blocks are chunks of 2^53 rounds, whatever the configuration
    assert montecarlo._MAX_BLOCK == 2**53
    sizes = [min(2**53, cfg.rounds - lo) for lo in range(0, cfg.rounds, 2**53)]
    real = montecarlo._block_tallies
    seen = []
    monkeypatch.setattr(montecarlo, "_block_tallies",
                        lambda c, t, block, size: seen.append((block, size)) or real(c, t, block, size))
    for threads in (1, 2, 3):
        seen.clear()
        simulate(cfg, threads=threads)
        assert sorted(seen) == list(enumerate(sizes))


@pytest.mark.parametrize("cfg, blocks", (
    (config(sp=FAR, rounds=5 * 10**16), 6),
    (config(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=50_000, basis_policy=1.0), 1),
), ids=("far", "bright"))
def test_light_blocks_run_on_the_calling_thread(cfg, blocks, monkeypatch):
    # Every block runs on the caller, at any thread count, with the same report.
    real, idents = montecarlo._block_tallies, []
    monkeypatch.setattr(montecarlo, "_block_tallies",
                        lambda *args: idents.append(threading.get_ident()) or real(*args))
    serial = simulate(cfg)
    assert simulate(cfg, threads=2) == serial
    assert idents == [threading.get_ident()] * (2 * blocks)


def test_light_calls_load_no_pool_module():
    # No call builds a pool or imports concurrent.futures: importing the
    # package and its CLI, then a six-block far run or a bright run (every
    # round clicks) at two threads, each in a fresh interpreter, leave it
    # unloaded.
    paths = (str(Path(montecarlo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for sp, rounds, basis_policy in (("l_km=400.0", "5 * 10**16", 0.5), ("mu=20.0, l_km=0.0, eta_d=1.0", "50_000", 1.0)):
        code = ("import sys, dualqss, dualqss.cli\n"
                f"cfg = dualqss.SimConfig(sp=dualqss.SystemParams({sp}), rounds={rounds}, seed=1, "
                f"basis_policy={basis_policy})\n"
                "dualqss.simulate(cfg, threads=2)\n"
                "print('concurrent.futures' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "False\n", sp


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
    # Equal configurations share one set of tables: _outcomes runs once for
    # them, whatever the worker count, and every block of a multi-block far
    # run reads that one object. A changed mu_arm, p_d, basis_policy or
    # check fraction builds them again (checks are drawn in the block's one
    # multinomial); the seed, rounds and attack do not. The blocks' count
    # lists are summed, so each call is still tallied once, not once per block.
    montecarlo._tables.cache_clear()
    laws, read, tallied = [], [], []
    real_outcomes, real_block, real_tally = montecarlo._outcomes, montecarlo._block_tallies, montecarlo._tally
    monkeypatch.setattr(montecarlo, "_outcomes", lambda *args: laws.append(args) or real_outcomes(*args))
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
            assert len(laws) == 1 and len(tallied) == calls
            assert len(read) == 8 and all(t is read[0] for t in read)
            tables.add(id(read[0]))
    assert len(tables) == 1
    for same in (replace(cfg, seed=9, rounds=10**6, attack="beam_split"),
                 replace(cfg, sp=replace(FAR, f=1.3), attack="dishonest_bob", flip_fraction=0.2)):
        simulate(same)
        assert len(laws) == 1 and read[-1] is read[0]
    for changed in (replace(cfg, sp=replace(FAR, mu=0.85)), replace(cfg, sp=replace(FAR, l_km=399.0)),
                    replace(cfg, sp=replace(FAR, p_d=1e-7)), replace(cfg, basis_policy=1.0),
                    replace(cfg, check_fraction=0.3)):
        built = len(laws)
        simulate(changed)
        assert len(laws) == built + 1 and id(read[-1]) not in tables
        tables.add(id(read[-1]))
    checked, built = read[-1], len(laws)
    for same in (replace(cfg, check_fraction=0.3, seed=9, rounds=10**6, attack="beam_split"),
                 replace(cfg, check_fraction=0.3, attack="dishonest_bob", flip_fraction=0.2)):
        simulate(same)
        assert len(laws) == built and read[-1] is checked
    assert len(tallied) == calls + 9


def run_and_compare(cfg):
    """The report and comparison rows of ``cfg`` as JSON, which shows -0.0."""
    report = simulate(cfg)
    return json.dumps(report.to_dict()), json.dumps(compare_to_analytic(report))


@pytest.mark.parametrize("signs", ((0.0, -0.0), (-0.0, 0.0)), ids=("zero-first", "negative-first"))
def test_results_do_not_depend_on_the_call_history(signs):
    # Cached tables and closed forms are keyed on the values they read,
    # and check_range stores p_d = -0.0 as +0.0. Whichever sign runs first,
    # each run equals a run from cleared caches, the beam-splitting run's
    # eve_leak row included, and the two signs' runs are the same bytes.
    configs = [config(sp=SystemParams(p_d=p_d), attack=attack, check_fraction=0.3)
               for p_d in signs for attack in ("none", "beam_split")]
    warm = [run_and_compare(cfg) for cfg in configs]
    cold = []
    for cfg in configs:
        montecarlo._tables.cache_clear()
        montecarlo._closed_forms.cache_clear()
        cold.append(run_and_compare(cfg))
    assert warm == cold
    assert warm[:2] == warm[2:]  # no field or row shows the sign of p_d
    for _, rows in warm:
        names = [row["name"] for row in json.loads(rows)]
        assert len(names) == 48 + ("eve_leak" in names) and len(set(names)) == len(names)
    assert ["eve_leak" in rows for _, rows in warm] == [False, True, False, True]


@pytest.mark.parametrize("sp", (SP, SystemParams(p_d=1.0)), ids=("near", "pd1"))
def test_cached_tables_are_read_only(sp):
    for check_fraction in (0.0, 0.3):
        tables = _draw_tables(config(sp=sp, check_fraction=check_fraction))
        # the law as an array, and each category's slots as a tuple of int tuples
        p, slots = tables
        assert isinstance(p, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            p[...] = 0
        assert isinstance(slots, tuple) and len(slots) == p.size
        assert all(isinstance(own, tuple) and all(type(slot) is int for slot in own) for own in slots)
    forms = montecarlo._closed_forms(sp.mu_arm, sp.p_d, 0.5)
    assert isinstance(forms, tuple) and all(isinstance(form, tuple) for form in forms)


def test_dark_source_is_one_block_of_any_size(monkeypatch):
    cfg = SimConfig(sp=SystemParams(mu=0.0, p_d=0.0), rounds=10**12, seed=2)
    real, sizes = montecarlo._block_tallies, []
    monkeypatch.setattr(montecarlo, "_block_tallies", lambda *args: sizes.append(args[-1]) or real(*args))
    rep = simulate(cfg, threads=2)
    assert sizes == [10**12]
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
    # Honest and attacked runs read one table and one protocol stream, the
    # checks included: at every check fraction an attack moves only its own
    # counts, Eve's successes or the announced ones.
    for check_fraction in (0.0, 0.3, 1.0):
        cfg = config(rounds=400_000, check_fraction=check_fraction, flip_fraction=0.05)
        honest = simulate(cfg)
        hc = counts(honest)
        for attack, moved in (("beam_split", {"n_eve_success"}), ("dishonest_bob", {"n_check_x_err", "n_check_z_err"})):
            attacked = simulate(replace(cfg, attack=attack))
            ac = counts(attacked)
            assert {k for k in hc if hc[k] != ac[k]} <= moved, (check_fraction, attack)
            assert honest.parity == attacked.parity
            if attack == "beam_split":
                assert (ac["n_eve_success"] > 0) == (check_fraction < 1.0)
            else:
                assert ac["n_check_z_err"] != hc["n_check_z_err"]
                assert (ac["n_check_x_err"] != hc["n_check_x_err"]) == (check_fraction > 0.0)


@pytest.mark.parametrize("run, attack", ((simulate_beam_split, "beam_split"),
                                         (simulate_dishonest_bob, "dishonest_bob")))
def test_attack_runs_simulate_the_replaced_config(run, attack, monkeypatch):
    # The attack wrappers build their config without re-checking its fields:
    # it equals, and simulates like, the config that ``replace`` builds.
    cfg = config(rounds=100_000, check_fraction=0.3, flip_fraction=0.05)
    seen, real = [], montecarlo.simulate
    monkeypatch.setattr(montecarlo, "simulate", lambda c, threads=1: seen.append(c) or real(c, threads))
    report = run(cfg)
    assert seen == [replace(cfg, attack=attack)] and type(seen[0]) is SimConfig
    assert vars(seen[0]) == vars(replace(cfg, attack=attack))
    assert report == real(replace(cfg, attack=attack))


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
))
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        config(**{name: value})


def test_config_accepts_any_finite_intensity():
    # No draw takes a photon number, so no intensity is too bright: mu = 1e19,
    # refused while rounds drew Poisson entry totals, and the largest float
    # give finite reports that serialise, and every X-basis round is an
    # event (two modes cancel, the other two click).
    for mu in (4e18, 1e19, 1.7976931348623157e308):
        rep = simulate(SimConfig(sp=SystemParams(mu=mu, l_km=0.0, eta_d=1.0), rounds=100_000, seed=1))
        assert rep.n_xx + rep.n_zz + rep.n_mixed == 100_000 and rep.n_xx > 0 and rep.n_fail_xx == 0, mu
        json.dumps(rep.to_dict(), allow_nan=False)
        assert all(math.isfinite(row["sigma"]) for row in compare_to_analytic(rep)), mu


def test_rounds_stay_within_the_int64_tallies():
    # at most 1,024 blocks, each count within an int64: 2^63 rounds are refused
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
             "231aff028df4dce85eff6ec9e8ea1e7a436b3e171b3b4e31bd0c14ee34e85344"),
    "bright": (dict(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=600_000, seed=17),
               "6c7caa36f06697a7537873c4a54c1a26b09e48d0443ebba8e67d2b6dab339ede"),
    "dark": (dict(sp=SystemParams(mu=0.84, l_km=100.0, p_d=0.02), rounds=600_000, seed=13),
             "db77117e21aca5d11acd773f5320455f587d0d4b66372b54a0041c67e19cd114"),
    "checked-none": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05),
                     "f2ce14d3be18add46c3cea954423d283be2af6c3aa03d317bc2b0aed2ea81495"),
    "checked-beam_split": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                attack="beam_split"),
                           "e597401a77320cbf6e145b3e594e0a8ed412609c27ee42d3b8629c9dd2e613d1"),
    "checked-dishonest_bob": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                   attack="dishonest_bob"),
                              "92c31b17709df6a4b231315d23cbe453cacf823c730618db5d2fbefa12dc10df"),
    "far": (dict(sp=FAR, rounds=10**9),
            "105b2b9ce4dbbf47e10c90fed738f598988eaa3645ede7b852b4130ca7f026af"),
    "near-x": (dict(rounds=1_100_000, basis_policy=1.0),
               "1996fd9a1d301c2552379c9c988a5ee1ffa233f987831b0daa320a1cb8ffba01"),
    "checked-beam_split-x": (dict(rounds=600_000, check_fraction=0.3, flip_fraction=0.05,
                                  attack="beam_split", basis_policy=1.0),
                             "518a036d5f6d6ca9daf2e6233e4ded3c8b5ebbcd95df2fff0366cb5292d8b518"),
    "bright-x": (dict(sp=SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), rounds=60_000, seed=17, basis_policy=1.0),
                 "5224749a1c147374ea94ac0de1268b34e8f622edf79c7c6ca44c10a006be3257"),
    "blocks-dishonest_bob": (dict(sp=FAR, rounds=3 * 2**53 + 5, check_fraction=0.3, flip_fraction=0.05,
                                  attack="dishonest_bob"),
                             "24257b20bfe17d7b60ea4dc76ce172ee9bb80b47696390b400585cebe33071ba"),
    "blocks-beam_split": (dict(sp=FAR, rounds=3 * 2**53 + 5, check_fraction=0.3, flip_fraction=0.05,
                               attack="beam_split"),
                          "a76839460f37c34db60518bc77718f21a1310ec7bd0505877cca58ce388c6329"),
}


@pytest.mark.parametrize("case", PINNED)
def test_tallies_pinned_at_fixed_seeds(case):
    """Reports are reproducible across versions, not only across calls.

    The SHA-256 of each report's JSON, the same for 1 and 2 threads, was
    last recorded when every round came to be drawn from one multinomial
    over the categories of the per-detector law (module docstring), and the
    four ``checked-*`` cases when the checks came to be drawn in that
    multinomial; each case is one block but the two ``blocks-*`` cases, four
    blocks each, whose digests were recorded from the summed int64 arrays
    before blocks came to be summed as Python ints. Any change of the block sizes or of how a block
    consumes its random streams changes these digests; such a change must
    update them and say so in CHANGES.md.
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


# The slow reference: the Poisson splitting. A round of a class holds Poisson entries in eight
# cells j = dark << 2 | detector (photons, then dark counts); its entry total N is Poisson(lam),
# lam the sum of the cell means, and given N the entries split multinomially over the cells in
# proportion to their means. Each cell's detector bit, and its photon-parity bit (0 for a dark count):
CELL_BITS = 1 << (np.arange(8) & 3)
CELL_ODD = np.where(np.arange(8) < 4, CELL_BITS, 0)
_TAIL = np.array([6.0 / math.factorial(k) for k in range(4, 22)])  # series of P(N >= 4) / P(N = 3) / lam


def reference_strata(lam):
    """P(N = 0) to P(N = 3) and P(N >= 4) of N ~ Poisson(lam), along the last axis, each to full
    relative precision: below lam = 1, P(N >= 4) sums its series from k = 4, where 1 - P(N < 4) would cancel."""
    p0 = np.exp(-lam)
    p1 = lam * p0
    p2 = 0.5 * lam * p1
    p3 = lam * p2 / 3.0
    series = np.power.outer(np.minimum(lam, 1.0), np.arange(_TAIL.size)) @ _TAIL
    return np.stack((p0, p1, p2, p3, np.where(lam < 1.0, p3 * lam * series, 1.0 - (p0 + p1 + p2 + p3))), axis=-1)


def cell_means(sp):
    """Mean entries per round of every class's eight cells: photons, then dark counts of mean -ln(1 - p_d)."""
    return np.concatenate((sp.mu_arm * montecarlo._UNIT_LAM, np.full((64, 4), -math.log1p(-sp.p_d))), axis=1)


def outcome_of(clicks, odd):
    """The outcome (``_STATES``) of click masks and photon-parity masks: per detector, 0 without a
    click, 1 with an odd photon number and 2 with an even one."""
    bits = 1 << np.arange(4)
    clicked, odd_at = (np.asarray(mask)[..., None] & bits != 0 for mask in (clicks, odd))
    return np.where(clicked, np.where(odd_at, 1, 2), 0) @ 3 ** np.arange(4)


@functools.cache
def tuple_outcomes(n):
    """Every ordered n-tuple of cells (i, j, ...) and the outcome its n entries reduce to through the reference."""
    tuples = np.array(list(itertools.product(range(8), repeat=n)))
    counts = np.array([np.bincount(entry, minlength=8) for entry in tuples])
    rounds, clicks, odd = reference_rows(*entries(counts, np.tile(CELL_BITS, (len(counts), 1)),
                                                  np.tile(CELL_ODD, (len(counts), 1))))
    assert np.array_equal(rounds, np.arange(len(counts)))  # every such round clicks
    return tuples, outcome_of(clicks, odd)


def reference_outcomes(sp):
    """Per class, the probability of each outcome with at most three entries, each ordered n-tuple of
    cells (i, j, ...) weighing P(N = n) q_i q_j ..., q the cells' shares of lam; and P(N >= 4)."""
    means = cell_means(sp)
    lam = means.sum(axis=1)
    q = means / np.where(lam > 0.0, lam, 1.0)[:, None]
    strata = reference_strata(lam)
    law = np.zeros((64, 81))
    law[:, 0] = strata[:, 0]
    for n in (1, 2, 3):
        tuples, outcome = tuple_outcomes(n)
        for c in range(64):
            np.add.at(law[c], outcome, strata[c, n] * q[c, tuples].prod(axis=1))
    return law, strata[:, 4], lam, q


def category_key(c, clicks, odd):
    """The category of a class-c round of a click mask and a photon-parity mask, written out from
    the report's layout: its group (X basis, Z basis, mixed, the representatives plus_plus and
    plus_minus), its atom (the one of ``_ATOM_CELLS`` holding (class, click mask), 12 for none) and its
    parity cell (its place among the report's 40, ``_PARITY_PATHS``; 40 for none)."""
    xa, xb = c >> 5 & 1, c >> 4 & 1
    group = {0b110000: 3, 0b110001: 4}.get(c, 0 if xa and xb else 1 if xa == xb else 2)
    atom = next((a for a, cells in enumerate(montecarlo._ATOM_CELLS) if c << 4 | clicks in cells), 12)
    cell = 40
    if group > 2 and clicks in PATTERN_OF_MASK:
        name, dets = PATTERN_OF_MASK[clicks]
        parity = "".join("o" if odd >> d & 1 else "e" for d in dets)
        path = ("plus_plus" if group == 3 else "plus_minus", name, {"o": "odd", "e": "even"}.get(parity, parity))
        cell = montecarlo._PARITY_PATHS.index(path)
    return group, atom, cell


@functools.cache
def category_keys():
    """``category_key`` of every class's every outcome (``_STATES``), as a 64 x 81 list."""
    masks = [(int((states > 0) @ (1 << np.arange(4))), int((states == 1) @ (1 << np.arange(4))))
             for states in montecarlo._STATES]
    return [[category_key(c, clicks, odd) for clicks, odd in masks] for c in range(64)]


def decode_slots(t):
    """Each category's (lot, group, atom, parity cell) from its slots in a block's count list,
    written out from the list's layout: the 5 group counts, the 40 parity cells, then each lot's 12
    atoms. Every category has one group slot and at most one parity-cell and one atom slot; one
    without an atom is in lot 0 with atom 12, one without a parity cell has cell 40."""
    keys = []
    for own in t.slots:
        kinds = ([], [], [])
        for slot in own:
            kinds[(slot >= 5) + (slot >= 45)].append(slot)
        [group], cells, atoms = kinds
        assert len(cells) <= 1 and len(atoms) <= 1, own
        lot, atom = divmod(atoms[0] - 45, 12) if atoms else (0, 12)
        keys.append((lot, group, atom, cells[0] - 5 if cells else 40))
    return keys


# Patterns by click mask (bit d for detector d): D1H = 1, D2H = 2, D1V = 4,
# D2V = 8. Event1 is a lone H click, Event2 an H+V pair at one port,
# Event3 at crossed ports.
EVENT_OF_MASK = {0b0001: 1, 0b0010: 1, 0b0101: 2, 0b1010: 2, 0b1001: 3, 0b0110: 3}
PATTERN_OF_MASK = {0b0001: ("h1", (0,)), 0b0010: ("h2", (1,)), 0b0101: ("h1v1", (0, 2)),
                   0b1010: ("h2v2", (1, 3)), 0b1001: ("h1v2", (0, 3)), 0b0110: ("h2v1", (1, 2))}
MASKS = (*EVENT_OF_MASK, 0b0000, 0b0111, 0b1111)


@pytest.mark.parametrize("seed", range(4))
def test_row_reduction_matches_unique_reference(seed):
    # Rounds of 0 to 5 entries per cell, many cells and some rounds empty,
    # so that detectors see photons and dark counts together, in seeded
    # classes. Each round's outcome, a detector in state 0 without entries,
    # 1 with an odd photon number and 2 otherwise, has the category
    # (``_KEYS``) of the click and photon-parity masks that the reference
    # reduces its entries to.
    rng = np.random.default_rng(seed)
    size = 3_000
    counts = rng.integers(0, 6, (size, 8)) * (rng.random((size, 8)) < 0.3)
    cls = rng.integers(0, 64, size)
    photons, darks = counts[:, :4], counts[:, 4:]
    states = np.where(photons & 1, 1, np.where(photons + darks > 0, 2, 0))
    got = np.unravel_index(montecarlo._KEYS[cls, states @ 3 ** np.arange(4)], montecarlo._KEY_SHAPE)
    rounds, clicks, odd = reference_rows(*entries(counts, np.tile(CELL_BITS, (size, 1)), np.tile(CELL_ODD, (size, 1))))
    all_clicks, all_odd = np.zeros(size, np.int64), np.zeros(size, np.int64)
    all_clicks[rounds], all_odd[rounds] = clicks, odd
    want = [category_key(c, k, o) for c, k, o in zip(cls.tolist(), all_clicks.tolist(), all_odd.tolist())]
    assert list(zip(*(index.tolist() for index in got))) == want
    assert 0 < rounds.size < size and (got[1] < 12).any() and (got[2] < 40).any()
    round_id, det, _ = entries(counts, np.tile(CELL_BITS, (size, 1)), np.tile(CELL_ODD, (size, 1)))
    assert np.unique(round_id << 2 | det, return_counts=True)[1].max() > 1


class Recorder:
    """A generator that keeps every multinomial draw: (n, pvals, drawn)."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def multinomial(self, n, pvals):
        self.drawn.append((n, pvals, self.rng.multinomial(n, pvals)))
        return self.drawn[-1][-1]


DRAWN = (
    (SP, 10**10),
    (SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), 50_000),
    (SystemParams(mu=0.84, l_km=100.0, p_d=0.02), 10**8),
    (SystemParams(mu=0.84, l_km=100.0, p_d=0.7), 50_000),
    (SystemParams(mu=0.0, p_d=0.0), 50_000),
)
DRAWN_IDS = ("near", "bright", "pd0.02", "pd0.7", "empty")
# the heavy-dark setting of scripts/draw_audit.py: rounds of three and of four or more entries are both common
HEAVY_DARK = SystemParams(mu=0.84, l_km=100.0, p_d=0.3)


@pytest.mark.parametrize("sp", [sp for sp, _ in DRAWN] + [HEAVY_DARK], ids=DRAWN_IDS + ("heavy-dark",))
def test_drawn_entries_reduce_like_unique_reference(sp):
    # Rounds of four or more entries, drawn by the reference: 100,000, each
    # of class c with probability in proportion to w_c P_c(N >= 4), its
    # entry total from the Poisson conditioned on N >= 4, split over the
    # cells and reduced through the reference. Their outcomes by class
    # follow the law less its rounds of up to three entries: a chi-square
    # over the (class, outcome) bins expecting at least 20, the rest pooled,
    # below its z = 5 quantile (Wilson-Hilferty). Without light or dark
    # counts no round holds an entry, and the law is all "no click".
    law = montecarlo._outcomes(sp.mu_arm, sp.p_d)
    ref, multi, lam, q = reference_outcomes(sp)
    weights = montecarlo._class_weights(0.5)
    if sp.mu == sp.p_d == 0.0:
        assert not multi.any() and (law[:, 0] == 1.0).all()
        return
    rest = weights[:, None] * (law - ref)
    assert rest.sum() == pytest.approx(weights @ multi, rel=1e-6)
    rng, rows = np.random.default_rng(11), 100_000
    cls = rng.choice(64, rows, p=weights * multi / (weights @ multi))
    counts = rng.multinomial(multi_entry_totals_reference(rng, lam[cls]), q[cls])
    rounds, clicks, odd = reference_rows(*entries(counts, np.tile(CELL_BITS, (rows, 1)), np.tile(CELL_ODD, (rows, 1))))
    assert rounds.size == rows  # four or more entries always click
    observed = np.bincount(cls * 81 + outcome_of(clicks, odd), minlength=64 * 81)
    expected = rows * rest.ravel() / rest.sum()
    big = expected >= 20.0
    observed, expected = [*observed[big], observed[~big].sum()], [*expected[big], rows - expected[big].sum()]
    df = len(expected) - 1
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert df >= 10 and chi2 < df * (1 - 2 / (9 * df) + 5 * math.sqrt(2 / (9 * df))) ** 3, (chi2, df)


@pytest.mark.parametrize("sp, size", DRAWN + ((FAR, 10**13),), ids=DRAWN_IDS + ("far",))
def test_drawn_pairs_reduce_like_unique_reference(sp, size):
    # Each class's rounds of one to three entries, as the reference splits
    # and reduces them (two photons in one cell are an even count), agree
    # with the law to 1e-12 relative; rounds of four or more add at most
    # their own mass P(N >= 4) to an outcome (their law is the chi-square's
    # above). A block draws one multinomial over the categories and sums
    # its counts as Python ints into the group counts, the parity cells and
    # each lot's atoms, as a loop over the categories' groups, cells and
    # atoms (``decode_slots``) does; without checks the checked lot is drawn
    # as zeros.
    law = montecarlo._outcomes(sp.mu_arm, sp.p_d)
    ref, multi, _, _ = reference_outcomes(sp)
    assert (ref <= law * (1 + 1e-12)).all() and (law <= ref * (1 + 1e-12) + multi[:, None]).all()
    t = _draw_tables(config(sp=sp))
    rng = Recorder(np.random.default_rng(3))
    got = montecarlo._draw(t, rng, size)
    [(n, pvals, drawn)] = rng.drawn
    assert n == size and pvals is t.p
    m, atoms, cells = [0] * 5, [0] * 26, [0] * 41
    for k, (lot, group, atom, cell) in zip(drawn.tolist(), decode_slots(t)):
        m[group] += k
        atoms[lot * 13 + atom] += k
        cells[cell] += k
    assert got == [*m, *cells[:40], *atoms[:12], *atoms[13:25]]
    assert atoms[13:] == [0] * 13
    assert all(type(n) is int for n in got) and sum(m) == size == sum(got[:5])
    # without light or dark counts no round clicks; else some rounds are events
    assert (sum(atoms[:12]) > 0) != (sp.mu == sp.p_d == 0.0)


TABLE_CASES = [SystemParams(mu=mu, l_km=100.0, p_d=p_d) for mu in (0.0, 0.84, 20.0) for p_d in (0.0, 8e-8, 0.02, 0.7)]


@pytest.mark.parametrize("basis_policy", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("sp", TABLE_CASES, ids=lambda sp: f"mu{sp.mu:g}-pd{sp.p_d:g}")
def test_joint_categories_are_a_law_over_read_cells(sp, basis_policy):
    # The categories are a law: every one possible, summing to 1, in
    # ascending order, stable by key, so that the last, whose count numpy
    # takes as the remainder, is the likeliest. They are the class-weighted
    # outcome laws merged by category, as a loop over every class and
    # outcome merges them (``category_key``), each to 1e-12 relative; so an
    # atom or a parity cell only ever holds rounds of the classes it reads.
    # With checks, a category with an atom is (1 - c) of it in lot 0 and c
    # in lot 1, and one without stays whole in lot 0.
    for check in (0.0, 0.3):
        t = _draw_tables(config(sp=sp, basis_policy=basis_policy, check_fraction=check))
        law = montecarlo._class_weights(basis_policy)[:, None] * montecarlo._outcomes(sp.mu_arm, sp.p_d)
        assert (t.p > 0.0).all() and abs(t.p.sum() - 1.0) <= 1e-12
        decoded = decode_slots(t)
        lot, group, atom, cell = np.array(decoded).T
        keys = np.ravel_multi_index((lot, group, atom, cell), (2, *montecarlo._KEY_SHAPE))
        assert np.array_equal(np.lexsort((keys, t.p)), np.arange(t.p.size)) and t.p[-1] == t.p.max()
        assert lot.max(initial=0) <= (check > 0.0) and (atom[lot == 1] < 12).all()
        merged = {}
        for c, row in enumerate(category_keys()):
            for key, p in zip(row, law[c].tolist()):
                parts = ((0, p * (1.0 - check)), (1, p * check)) if check and key[1] < 12 else ((0, p),)
                for part in parts:
                    merged[part[0], *key] = merged.get((part[0], *key), 0.0) + part[1]
        want = {key: p for key, p in merged.items() if p > 0.0}
        got = dict(zip(decoded, t.p.tolist()))
        assert got.keys() == want.keys()
        assert all(abs(got[key] - p) <= 1e-12 * p for key, p in want.items())


@pytest.mark.parametrize("p_d", (0.0, 0.7, 1.0))
@pytest.mark.parametrize("mu_arm", (0.0, 1e-320, 1e300, 1.7976931348623157e308), ids=("0", "1e-320", "1e300", "max"))
def test_laws_stay_finite_at_the_edges(mu_arm, p_d):
    # Intensities of 0, about 1e-320 (subnormal), up to 2e300 and beyond
    # the float range, with no dark counts, many, or a click at every
    # detector: each class's law is finite and sums to 1 within 1e-12, and
    # so do the categories, each positive, with checks or without, and
    # without a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = montecarlo._outcomes(mu_arm, p_d)
        assert np.isfinite(law).all() and (law >= 0.0).all() and abs(law.sum(axis=1) - 1.0).max() <= 1e-12
        for basis_policy, check_fraction in itertools.product((0.0, 0.5, 1.0), (0.0, 0.3)):
            p = montecarlo._tables(mu_arm, p_d, basis_policy, check_fraction).p
            assert np.isfinite(p).all() and (p > 0.0).all() and (p <= 1.0).all() and abs(p.sum() - 1.0) <= 1e-12
    if p_d == 1.0:  # every detector clicks, with odd photon parity only where light arrives
        assert law[:, 80].sum() > 0.0 and not law[:, (montecarlo._STATES == 0).any(axis=1)].any()


EDGE_RUNS = list(itertools.product((0.0, 1e-8, 0.84, 20.0, 1e300), (0.0, 0.5, 1.0 - 2.0**-53, 1.0),
                                   (0.0, 5e-324, 0.5, 1.0), (0.0, 1.0)))


def test_runs_and_comparisons_at_the_edges():
    # No light, faint, bright and far beyond any detector's range; no dark
    # counts to a click at every detector (where the likeliest category's
    # sum can round above 1); one basis, barely the other, or both; no
    # checks or all; and each of the three runs: each simulates and
    # compares without an error or a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu, p_d, basis_policy, check_fraction in EDGE_RUNS:
            cfg = config(sp=SystemParams(mu=mu, p_d=p_d), basis_policy=basis_policy,
                         check_fraction=check_fraction, flip_fraction=0.25)
            for run in (simulate, simulate_beam_split, simulate_dishonest_bob):
                report = run(cfg)
                rows = compare_to_analytic(report)
                assert report.n_xx + report.n_zz + report.n_mixed == cfg.rounds
                assert len(rows) == 48 + (run is simulate_beam_split)
                assert all(0.0 <= row["p_analytic"] <= 1.0 for row in rows), (cfg, run)


def one_lot_tables(mu_arm, p_d, basis_policy):
    """The draw tables as built before checks joined them: the categories of positive probability in
    ascending order, stable by key, and each one's group, atom and parity cell."""
    law = montecarlo._class_weights(basis_policy)[:, None] * montecarlo._outcomes(mu_arm, p_d)
    sums = np.bincount(montecarlo._KEYS.ravel(), law.ravel(), math.prod(montecarlo._KEY_SHAPE))
    keys = np.flatnonzero(sums)
    keys = keys[np.argsort(sums[keys], kind="stable")]
    return (sums[keys], *np.unravel_index(keys, montecarlo._KEY_SHAPE))


_FOLD_RNG = np.random.default_rng(38)
FOLDED_LAWS = [(float(10.0 ** _FOLD_RNG.uniform(-8, 2)), p_d, float(_FOLD_RNG.uniform()))
               for p_d in (0.0, 1e-9, 8e-8, 1e-5, 1e-3, 0.3, 1.0) for _ in range(3)] + [
    (mu_arm, p_d, basis_policy) for mu_arm in (0.0, 1e-320, 1e300, 1.7976931348623157e308)
    for p_d in (0.0, 0.7, 1.0) for basis_policy in (0.0, 0.5, 1.0)]


def test_checks_fold_into_the_draw_law():
    # Each category with an atom splits into its unchecked and checked
    # rounds, p (1 - c) and p c: the pair sums to the unsplit p within 1e-15
    # relative and the checked share is c within 2 ulp, up to the rounding
    # of a subnormal part (half the smallest float each); a part that
    # rounds to 0 is dropped. Categories without an atom stay whole, in lot
    # 0. Without checks the tables are those of one lot, as built before,
    # and a block's split carries an empty checked lot.
    tiny = Fraction(math.ulp(0.0))
    for mu_arm, p_d, basis_policy in FOLDED_LAWS:
        whole = one_lot_tables(mu_arm, p_d, basis_policy)
        plain = montecarlo._tables(mu_arm, p_d, basis_policy, 0.0)
        unsplit = dict(zip(zip(*(index.tolist() for index in whole[1:])), whole[0].tolist()))
        assert np.array_equal(whole[0], plain.p) and whole[0].dtype == plain.p.dtype
        assert decode_slots(plain) == [(0, *key) for key in unsplit]
        for c in (1e-3, 0.3, 1.0):
            t = montecarlo._tables(mu_arm, p_d, basis_policy, c)
            parts = {}
            for key, p in zip(decode_slots(t), t.p.tolist()):
                assert key[0] == 0 or key[2] < 12, key  # only a category with an atom splits
                parts.setdefault(key[1:], [0.0, 0.0])[key[0]] = p
            assert parts.keys() == unsplit.keys()
            for key, p in unsplit.items():
                free, checked = parts[key]
                if key[1] == 12:
                    assert (free, checked) == (p, 0.0), key
                    continue
                p = Fraction(p)
                assert abs(Fraction(free) + Fraction(checked) - p) <= Fraction(1e-15) * p + tiny, key
                assert abs(Fraction(checked) - Fraction(c) * p) <= 2 * Fraction(math.ulp(c)) * p + tiny / 2, key
    cfg = config(sp=HEAVY_DARK)
    assert lottery_split(cfg, 10**6).shape == (2, 12)


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
    # the count list that a block returns: the group counts, the
    # parity-cell counts (each row's category, ``_KEYS``) and the lottery
    # split over (lottery, atom), each tallied cell's rows counted in its
    # atom.
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
    cell = np.unravel_index(montecarlo._KEYS[c, outcome_of(clicks, odd)], montecarlo._KEY_SHAPE)[2]
    atom_of = np.full(1024, -1)
    for atom, cells in enumerate(montecarlo._ATOM_CELLS):
        atom_of[list(cells)] = atom
    atom = atom_of[c << 4 | clicks]
    atoms = len(montecarlo._ATOM_CELLS)
    split = np.bincount((lottery * atoms + atom)[atom >= 0], minlength=lots * atoms).reshape(lots, atoms)
    groups = np.bincount(montecarlo._GROUP, m, 5).astype(np.int64)
    counts = [*groups, *np.bincount(cell, minlength=41)[:40], *split.ravel()]
    got = montecarlo._tally(config(attack=attack), [int(n) for n in counts])
    want = expected_tallies(m, rows)
    assert got == want
    assert min(got[k] for k in montecarlo._COUNT_FIELDS if k != "n_eve_success") > 0
    assert (got["n_eve_success"] > 0) == (attack == "beam_split")


# n_xx, n_zz, the rounds and the representatives' rounds, each a sum of the group counts (X basis,
# Z basis, mixed bases, plus_plus, plus_minus)
BASIS_SUMS = np.array(((1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 0, 0), (1, 0, 1, 1, 0), (1, 0, 1, 0, 1)))


def array_reference(cfg):
    """The tallies of ``cfg`` as numpy reduced each block before its counts were summed as Python
    ints: three ``np.bincount``s of the multinomial draw by group, by (lot, atom) and by parity
    cell (``decode_slots``); an attack's layers drawn on the (lot, atom) array; the blocks' int64
    arrays summed; then the lots' columns ``split @ _ATOM_TABLE`` and the basis sums ``m @
    BASIS_SUMS``, tallied lot by lot."""
    t, total = _draw_tables(cfg), None
    lot, group, atom, cell = np.array(decode_slots(t)).T
    p, layers = {"beam_split": (montecarlo._ie_dual_tapped((1.0 - cfg.sp.eta_t) * cfg.sp.mu), 1),
                 "dishonest_bob": (cfg.flip_fraction, 2)}.get(cfg.attack, (0.0, 0))
    for block, lo in enumerate(range(0, cfg.rounds, 2**53)):
        k = montecarlo._stream(cfg, 0, block).multinomial(min(2**53, cfg.rounds - lo), t.p)
        m, atoms, cells = (np.bincount(index, k, n).astype(np.int64)
                           for index, n in zip((group, lot * 13 + atom, cell), (5, 26, 41)))
        split = atoms.reshape(2, 13)[:, :-1]
        if p:
            rng = montecarlo._stream(cfg, 1, block)
            for _ in range(layers):
                won = rng.binomial(split, p)
                split = np.concatenate((split - won, won))
        arrays = (m, cells[:-1], split)
        total = arrays if total is None else tuple(a + b for a, b in zip(total, arrays))
    m, cells, split = total
    per_lot = (split @ montecarlo._ATOM_TABLE).tolist()
    want = dict(zip(montecarlo._TABLE_COUNTS, map(sum, zip(*per_lot))))
    want["n_xx"], want["n_zz"], rounds, *reps = (m @ BASIS_SUMS).tolist()
    want["n_mixed"] = rounds - want["n_xx"] - want["n_zz"]
    want.update(n_check_z_err=0, n_check_x_bits=0, n_check_x_err=0, n_key_events=0, n_eve_success=0)
    for lot, (x1, x2, x3, e1_ph, e2_ph, e2_pol, e3_ph, e3_pol, zc, z_ph) in enumerate(per_lot):
        f_ph, won = (lot >> 1 & 1, 0) if cfg.attack == "dishonest_bob" else (0, lot >> 1 & 1)
        f_pol = lot >> 2 & 1
        want["n_check_z_err"] += zc - z_ph if f_ph else z_ph
        if lot & 1:
            want["n_check_x_bits"] += x1 + 2 * (x2 + x3)
            want["n_check_x_err"] += x1 + x2 + x3 - e1_ph - e2_ph - e3_ph if f_ph else e1_ph + e2_ph + e3_ph
            want["n_check_x_err"] += x2 + x3 - e2_pol - e3_pol if f_pol else e2_pol + e3_pol
        else:
            want["n_key_events"] += x1 + x2 + x3
            want["n_eve_success"] += (x1 + x2 + x3) * won
    cells = iter(cells.tolist())
    want["parity"] = {key: {"n": n, **{name: dict(zip(names, cells)) for name, names in montecarlo._PARITY_GROUPS}}
                      for (key, _), n in zip(montecarlo._PARITY_KEYS, reps)}
    return want


def reference_configs():
    """99 seeded configurations: mu from 1e-3 to 20, 0 to 450 km, check fraction and p_d each 0, 1
    or random, random basis policy and flips, and 1 to 3 * 2^53 + 5 rounds (up to four blocks)."""
    rng = np.random.default_rng(41)
    for i in range(99):
        sp = SystemParams(mu=float(10.0 ** rng.uniform(-3, 1.3)), l_km=float(rng.uniform(0, 450)),
                          p_d=(0.0, 1.0, float(10.0 ** rng.uniform(-9, -0.5)))[i // 3 % 3])
        rounds = (1, int(rng.integers(1, 10**7)), int(rng.integers(1, 10**15)), 3 * 2**53 + 5)[int(rng.integers(4))]
        yield config(sp=sp, rounds=rounds, seed=int(rng.integers(2**32)),
                     check_fraction=(0.0, 1.0, float(rng.uniform()))[i % 3],
                     basis_policy=(0.5, 1.0, float(rng.uniform()))[int(rng.integers(3))],
                     flip_fraction=(0.0, 1.0, float(rng.uniform()))[int(rng.integers(3))])


def test_block_sums_match_the_array_reference():
    # Every seeded configuration, with each of the three runs, gives the
    # report counts and parity cells that the numpy reduction of the same
    # draws gives (``array_reference``): the same streams, the same
    # binomial inputs in the same order, the same sums.
    blocks = 0
    for cfg in reference_configs():
        for attack in ("none", "beam_split", "dishonest_bob"):
            attacked = replace(cfg, attack=attack)
            report, want = simulate(attacked), array_reference(attacked)
            assert {name: getattr(report, name) for name in want} == want, attacked
        blocks += cfg.rounds > 2**53
    assert blocks >= 10


@pytest.mark.parametrize("attack", ("none", "beam_split"))
def test_hand_made_negative_zero_leaves_real_rows_alone(attack):
    # SimReport runs no checks, so a report replaced by hand can carry
    # p_d = -0.0 and check_fraction = -0.0, which the cached closed forms
    # take as the +0.0 that check_range stores. Compared in either order
    # on cleared caches, both reports give the rows the genuine report
    # gives alone.
    report = simulate(config(sp=SystemParams(p_d=0.0), attack=attack))
    negative = replace(report, p_d=-0.0, check_fraction=-0.0)
    montecarlo._closed_forms.cache_clear()
    alone = json.dumps(compare_to_analytic(report))
    for order in ((report, negative), (negative, report)):
        montecarlo._closed_forms.cache_clear()
        assert [json.dumps(compare_to_analytic(r)) for r in order] == [alone, alone]
    assert ("eve_leak" in alone) == (attack == "beam_split")


def raised_cell(report):
    """The report's parity with plus_plus's lone h1 odd cell one above its trials."""
    plus_plus = report.parity["plus_plus"]
    return {**report.parity, "plus_plus": {**plus_plus, "h1": {"odd": plus_plus["n"] + 1, "even": 0}}}


IMPOSSIBLE_REPORTS = (
    ("basis_policy", lambda report: 2.0), ("check_fraction", lambda report: -0.5), ("rounds", lambda report: 0),
    ("attack", lambda report: "bogus"), ("l_km", lambda report: math.inf), ("eta_d", lambda report: 2.0),
    ("n_event1", lambda report: -5), ("n_event1", lambda report: report.n_xx + 1), ("parity", raised_cell),
)


@pytest.mark.parametrize("field, value", IMPOSSIBLE_REPORTS,
                         ids=("bp2", "check-0.5", "rounds0", "bogus", "l_km-inf", "eta_d2", "count-5", "count>n",
                              "cell>n"))
def test_compare_rejects_reports_no_run_could_make(field, value):
    # A report replaced by hand with an echoed field outside the rules of
    # SystemParams and SimConfig, or a count outside [0, its trials], gives
    # no rows but a ValueError that names the field.
    report = simulate(config(rounds=10**6))
    with pytest.raises(ValueError, match=re.escape(field)):
        compare_to_analytic(replace(report, **{field: value(report)}))


def test_atoms_partition_the_tallied_cells():
    # Every cell with a non-zero truth-table row lies in exactly one atom,
    # whose row equals its own, and no other cell lies in any: Event1 by
    # phase error, Event2 and Event3 by phase and polarization error, and
    # the Z check by phase error.
    tables, rows = montecarlo._TABLES, montecarlo._ATOM_TABLE
    cells = [cell for atom in montecarlo._ATOM_CELLS for cell in atom]
    assert sorted(cells) == np.flatnonzero(tables.any(axis=1)).tolist() and len(cells) == 104
    for atom, members in enumerate(montecarlo._ATOM_CELLS):
        assert all(np.array_equal(tables[cell], rows[atom]) for cell in members)
    assert rows.shape == (12, 10) and len({tuple(row) for row in rows.tolist()}) == 12


def test_parity_cells_index_the_outcomes():
    # Each of the 40 parity cells, in row order, is the category of exactly
    # one outcome of one class: the row's representative class (plus_plus,
    # then plus_minus), its pattern's detectors clicking, with odd photon
    # parity exactly on the detectors the cell marks Odd.
    cell = np.unravel_index(montecarlo._KEYS, montecarlo._KEY_SHAPE)[2]
    rows = [(rep, cell) for rep in (0b110000, 0b110001) for cell in montecarlo._PARITY_CELLS]
    assert len(rows) == 40 and np.count_nonzero(cell < 40) == 40
    for index, (rep, (name, _, dets, classes)) in enumerate(rows):
        [[c], [j]] = np.nonzero(cell == index)
        states = montecarlo._STATES[j]
        assert c == rep and PATTERN_OF_MASK[int((states > 0) @ (1 << np.arange(4)))] == (name, tuple(map(int, dets)))
        assert [d for d in range(4) if states[d] == 1] == [d for d, p in zip(dets, classes) if p is ClickParity.ODD]


def lottery_split(cfg, size):
    """The lottery split over (lot, atom) in the count list that one block of ``size`` rounds of ``cfg`` returns."""
    return np.array(montecarlo._block_tallies(cfg, _draw_tables(cfg), 0, size)[montecarlo._ATOMS:]).reshape(-1, 12)


@pytest.mark.parametrize("attack, lots", (("none", 2), ("beam_split", 4), ("dishonest_bob", 8)))
def test_lottery_splits_every_atom(attack, lots):
    # Heavy dark counts give each of the 12 atoms over 40,000 rounds in one
    # block of 10^7. Given the atom's rounds, each lot bit is a binomial of
    # its probability: within 5 sigma per atom and over all atoms.
    cfg = config(sp=HEAVY_DARK, attack=attack, check_fraction=0.3, flip_fraction=0.25)
    split = lottery_split(cfg, 10**7)
    rounds = split.sum(axis=0)
    assert split.shape == (lots, 12) and rounds.min() > 40_000
    # bit 0: checked, drawn in the block's multinomial; bit 1: flip_ph or Eve's success; bit 2: flip_pol
    leak = montecarlo.ie_dual(montecarlo.TapParams(mu=cfg.sp.mu, eta_t=cfg.sp.eta_t))
    probs = {"none": [0.3], "beam_split": [0.3, leak], "dishonest_bob": [0.3, 0.25, 0.25]}[attack]
    for bit, p in enumerate(probs):
        drawn = split[[lot for lot in range(lots) if lot >> bit & 1]].sum(axis=0)
        assert (abs(drawn - rounds * p) < 5 * np.sqrt(rounds * p * (1 - p))).all(), bit
        assert abs(drawn.sum() - rounds.sum() * p) < 5 * math.sqrt(rounds.sum() * p * (1 - p)), bit


def test_lottery_draws_nothing_it_does_not_need(monkeypatch):
    # The protocol stream draws one multinomial, checks included; an attack
    # stream is built only for a layer of positive probability (flip 0 adds
    # no lots), and a draw without checks leaves the checked lot, bit 0, empty.
    streams, real = [], montecarlo._stream
    monkeypatch.setattr(montecarlo, "_stream", lambda c, kind, block: streams.append((kind, real(c, kind, block)))
                        or streams[-1][1])
    for kw, lots, kinds in ((dict(), 2, [0]), (dict(check_fraction=0.3), 2, [0]),
                            (dict(attack="dishonest_bob", check_fraction=0.3), 2, [0]),
                            (dict(attack="beam_split"), 4, [0, 1]),
                            (dict(attack="dishonest_bob", flip_fraction=0.1), 8, [0, 1])):
        cfg = config(**kw)
        streams.clear()
        split = lottery_split(cfg, 100_000)
        assert split.shape == (lots, 12) and [kind for kind, _ in streams] == kinds, kw
        fresh = real(cfg, 0, 0)
        atoms = np.array(montecarlo._draw(_draw_tables(cfg), fresh, 100_000)[montecarlo._ATOMS:])
        assert streams[0][1].bit_generator.state == fresh.bit_generator.state, kw
        assert np.array_equal(split.sum(axis=0), atoms.reshape(2, 12).sum(axis=0)) and atoms.sum() > 0
        if not cfg.check_fraction:
            assert not split[1::2].any(), kw


def poisson_pmf(lam, k):
    # exact rational series term, rounded once, times a correctly rounded exponential
    return math.exp(-lam) * float(Fraction(lam) ** k / math.factorial(k))


@pytest.mark.parametrize("lam", (1e-12, 1e-6, 0.05, 1.0, 30.0))
def test_strata_to_full_relative_precision(lam):
    # The reference's P(N = 0) to P(N = 3) and P(N >= 4): at 400 km lam is
    # about 2.5e-5, where 1 - e^-lam (1 + lam + lam^2 / 2 + lam^3 / 6)
    # would keep none of its digits
    top = int(lam + 40 * math.sqrt(lam) + 40)
    want = (*(poisson_pmf(lam, k) for k in range(4)), math.fsum(poisson_pmf(lam, k) for k in range(4, top)))
    got = reference_strata(np.array([lam, lam]))
    for stratum, value in enumerate(want):
        assert got[0, stratum] == got[1, stratum]
        assert abs(got[0, stratum] - value) <= 1e-14 * value, stratum


def multi_entry_totals_reference(rng, lam):
    """Poisson(lam) conditioned on N >= 4, by exact rejection: where lam <= 1, 4 + Poisson(lam) is
    kept with probability 24 / (N (N - 1) (N - 2) (N - 3)), else Poisson(lam) is redrawn until >= 4."""
    n = np.empty(lam.size, np.int64)
    todo = np.arange(lam.size)
    while todo.size:
        small = lam[todo] <= 1.0
        x = rng.poisson(lam[todo]) + 4 * small
        keep = np.where(small, rng.random(todo.size) * x * (x - 1.0) * (x - 2.0) * (x - 3.0) < 24.0, x >= 4)
        n[todo[keep]] = x[keep]
        todo = todo[~keep]
    return n


@pytest.mark.parametrize("lam", (0.02, 0.5, 1.0, 1.4, 6.0))
def test_multi_entry_totals_follow_the_conditioned_poisson(lam):
    # The reference's totals: chi-square of 200k draws against Poisson(lam)
    # given N >= 4, on both sides of lam = 1 (the two rejection rules), in
    # one call with a second mean so that the rules run side by side; the
    # bound is the chi-square quantile at z = 5 (Wilson-Hilferty).
    other = 3.0 if lam <= 1.0 else 0.3
    n = multi_entry_totals_reference(np.random.default_rng(21), np.repeat([lam, other], 200_000))
    assert n.min() >= 4
    n = n[:200_000]
    p_multi = reference_strata(np.array([lam]))[0, 4]
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


@pytest.mark.parametrize("cfg", (
    config(sp=FAR, rounds=10**9, basis_policy=1.0),
    config(sp=SystemParams(mu=0.4, l_km=100.0), rounds=2 * 10**7, basis_policy=1.0),
), ids=("400km", "100km-mu0.4"))
def test_blocks_without_four_entry_rounds_draw_no_rows(cfg, monkeypatch):
    # No round is a row: a block's protocol stream draws one multinomial,
    # over the categories, however many entries its rounds hold.
    streams, real_stream = [], montecarlo._stream
    monkeypatch.setattr(montecarlo, "_stream", lambda *args: streams.append(Recorder(real_stream(*args)))
                        or streams[-1])
    report = simulate(cfg)
    assert report.rounds == cfg.rounds and [len(stream.drawn) for stream in streams] == [1]
    assert streams[0].drawn[0][1] is _draw_tables(cfg).p


@pytest.mark.parametrize("basis_policy", (0.0, 1.0), ids=("z", "x"))
def test_cells_of_mean_zero_never_receive_an_entry(basis_policy):
    # At p_d = 0, cancelled modes leave detectors of intensity 0 (two in
    # each X class, three in a Z class whose senders share a polarization):
    # such a detector never clicks. Bright pulses make the other detectors
    # click in nearly every round.
    sp = SystemParams(mu=20.0, l_km=0.0, eta_d=1.0, p_d=0.0)
    weights = montecarlo._class_weights(basis_policy)
    silent = (montecarlo._UNIT_LAM == 0.0) @ (1 << np.arange(4))
    assert np.count_nonzero(silent[weights > 0]) == (16 if basis_policy else 8)
    law = montecarlo._outcomes(sp.mu_arm, sp.p_d)
    clicks = (montecarlo._STATES > 0) @ (1 << np.arange(4))
    impossible = (clicks & silent[:, None]) != 0
    assert not law[impossible].any() and law[~impossible].all()
    counts = montecarlo._draw(_draw_tables(config(sp=sp, basis_policy=basis_policy)), np.random.default_rng(7), 100_000)
    assert sum(counts[:5]) == 100_000 and sum(counts[montecarlo._ATOMS:]) > 0


def test_read_classes_are_the_x_and_checked_z_classes():
    # The tally reads the outcomes of classes with both senders in X
    # (48-63), and those of both senders in Z with both in the H mode (0,
    # 2, 8, 10): only their outcomes fall in an atom or a parity cell.
    _, atom, cell = np.unravel_index(montecarlo._KEYS, montecarlo._KEY_SHAPE)
    assert np.flatnonzero(((atom < 12) | (cell < 40)).any(axis=1)).tolist() == [0, 2, 8, 10, *range(48, 64)]


@pytest.mark.parametrize("sp", (SystemParams(mu=20.0, l_km=0.0, eta_d=1.0), SystemParams(p_d=1.0)),
                         ids=("bright", "pd1"))
def test_unread_classes_are_counted_not_split(sp):
    # Mixed-basis and unchecked Z rounds keep their group counts, which n_zz
    # and n_mixed read, but no atom or parity cell: nothing reads their clicks.
    t = _draw_tables(config(sp=sp))
    keys = decode_slots(t)
    assert all(atom == 12 for _, group, atom, _ in keys if group == 2)
    assert all(cell == 40 for _, group, _, cell in keys if group < 3)
    counts = montecarlo._draw(t, np.random.default_rng(7), 100_000)
    x, n_zz, n_mixed, *reps = counts[:5]
    n_xx = x + sum(reps)
    assert n_zz + n_mixed > 60_000 and n_xx + n_zz + n_mixed == 100_000  # the Z and mixed rounds
    assert sum(counts[montecarlo._ATOMS:]) <= n_xx + n_zz
    assert sum(counts[montecarlo._CELLS:montecarlo._ATOMS]) <= sum(reps)
    assert all(own == (2,) for own, (_, group, _, _) in zip(t.slots, keys) if group == 2)


def test_memory_does_not_grow_with_rounds():
    # No array is sized by rounds or by one-entry rounds: 1e13 rounds at
    # 400 km hold about 2.5e8 one-entry rounds, 2e6 at 100 km about 48k.
    # Nor by blocks: 2^60 rounds at p_d = 1 are 128 blocks, each a count
    # list of 141 ints with an 8-lot split, summed as they arrive rather
    # than held as a list.
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
