"""End-to-end CLI behavior: formats, precedence, atomicity, errors."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

from dualqss import cli, montecarlo
from dualqss.cli import build_parser, main
from dualqss.detectors import SystemParams
from dualqss.montecarlo import SimConfig

HEADER = "L_km,mu,R,R_event1,R_event2,R_event3,I_E,PLOB"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_header_and_shape(capsys):
    code, out, err = run(capsys, "sweep", "--lo", "100", "--hi", "120", "--step", "10")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# params:")
    assert lines[1] == HEADER
    assert len(lines) == 2 + 3
    first = lines[2].split(",")
    assert len(first) == 8
    assert float(first[0]) == 100.0


def test_sweep_byte_stable(capsys):
    args = ("sweep", "--lo", "0", "--hi", "200", "--step", "50")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sweep_mu_variable(capsys):
    code, out, _ = run(capsys, "sweep", "--var", "mu", "--lo", "0.4", "--hi", "0.8",
                       "--step", "0.2", "--L", "300")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [float(r[1]) for r in rows] == pytest.approx([0.4, 0.6, 0.8])
    assert all(float(r[0]) == 300.0 for r in rows)


def test_ie_compare_columns(capsys):
    code, out, _ = run(capsys, "ie-compare", "--lo", "100", "--hi", "100", "--step", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(" ie_compare=true")
    assert lines[1] == HEADER + ",IE_dual,IE_ph,IE_pol,IE_dps"
    row = lines[2].split(",")
    assert len(row) == 12
    ie_dual, ie_ph, ie_pol = float(row[8]), float(row[9]), float(row[10])
    assert ie_pol < ie_dual < ie_ph


@pytest.mark.parametrize("argv", (
    ["optimize", "--method", "golden"],
    ["optimize", "--seed", "3"],
    ["sweep", "--ie-compare"],
))
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ("sweep", "ie-compare", "optimize", "max-distance",
                                     "simulate", "thresholds"))
def test_defaults_come_from_the_library(command):
    args = build_parser().parse_args([command])
    sp = SystemParams(l_km=400.0) if command == "optimize" else SystemParams()
    assert (args.mu, args.L, args.alpha, args.eta_d, args.p_d, args.f) == (
        sp.mu, sp.l_km, sp.alpha, sp.eta_d, sp.p_d, sp.f)
    if command == "simulate":
        assert (args.basis_policy, args.check_fraction, args.flip, args.attack) == (
            SimConfig.basis_policy, SimConfig.check_fraction, SimConfig.flip_fraction, "none")


def test_second_main_call_carries_no_state(capsys):
    # the parser is built once per process and shared by every call
    assert build_parser() is build_parser()
    code, _, _ = run(capsys, "ie-compare", "--var", "mu", "--lo", "0.5", "--hi", "0.5",
                     "--step", "1", "--L", "300", "--alpha", "0.3", "--mu", "1.2")
    assert code == 0
    argv = ["sweep", "--lo", "100", "--hi", "100", "--step", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("# params: mu=0.84 L=100 alpha=0.2 eta_d=0.145 p_d=8e-08 f=1.15 "
                        "var=L lo=100 hi=100 step=1 ie_compare=false")
    assert lines[1] == HEADER
    assert lines[2].split(",")[:2] == ["100", "0.84"]
    fresh = build_parser.__wrapped__()
    assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


def load_script(name):
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# SHA-256 of each CSV that scripts/make_figure_data.py writes, as of
# commit 60f7309. The published curves must not change by a single bit.
FIGURE_DIGESTS = {
    "leakage_vs_mu.csv":
        "4e644f8a4b68cffa14a6ced8f8874b10dd98988be7253edb2915f21805af1dcc",
    "rate_vs_distance_mu084.csv":
        "0c2435f573eeaeb721001bccd8ffa083b9774b90764152500bca08ae13aba8d5",
    "rate_vs_distance_mu150.csv":
        "9c169013bd2a44c008045c75f40f5b8ef5e7757ddf899c797deafa90be077cc1",
    "rate_vs_mu_400km.csv":
        "7edf317077f51e8c371777834e7c8044df6e92f65edbdd98b9588bbc4908282f",
}


def test_figure_data_bytes_unchanged(tmp_path, capsys):
    module = load_script("make_figure_data")
    module.run(str(tmp_path))
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == FIGURE_DIGESTS


def test_mc_crosscheck_prints_the_same_from_cold_and_warm_caches(capsys):
    # The script at its own seed and budget, at few rounds: the
    # second run in the process reads the cached draw tables and closed
    # forms, the first builds them. The exit code follows the budget, pass
    # or fail.
    module = load_script("mc_crosscheck")
    args = module.parse_args(["--rounds", "20000"])
    montecarlo._tables.cache_clear()
    montecarlo._closed_forms.cache_clear()
    codes, texts = [], []
    for _ in range(2):
        codes.append(module.run(args.rounds, args.seed, args.budget, args.verbose))
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and codes[0] == codes[1]
    assert montecarlo._tables.cache_info().hits == montecarlo._closed_forms.cache_info().hits == 6
    summary = re.fullmatch(r"worst over all configurations: (\S+) \(budget (\S+)\), min p_tail \S+",
                           texts[0].splitlines()[-1])
    worst = [float(w) for w in re.findall(r"max\|sigma\|= *(\S+)", texts[0])]
    assert len(worst) == 6 and float(summary[1]) == max(worst) and float(summary[2]) == args.budget
    flags = re.findall(r"  (ok|EXCEEDED)$", texts[0], re.MULTILINE)
    assert len(flags) == 6 and codes[0] == int("EXCEEDED" in flags)
    # the printed worst has two decimals, so it may round onto the budget
    assert codes[0] == int(max(worst) > args.budget) or max(worst) == args.budget


@pytest.mark.parametrize("argv, message", (
    (["--threads", "0"], "unrecognized arguments: --threads 0"),  # every call runs on one thread
    (["--rounds", "0"], "rounds must be an integer >= 1, got 0"),
    (["--rounds", str(2**63)], "rounds must be below 2**63"),
    (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["--budget", "nan"], "budget must be finite and non-negative, got nan"),
    (["--budget", "-1"], "budget must be finite and non-negative"),
))
def test_mc_crosscheck_rejects_out_of_range_flags(argv, message, capsys):
    # A usage error, not a traceback out of the library or a budget that
    # marks every configuration EXCEEDED; the defaults still parse.
    module = load_script("mc_crosscheck")
    with pytest.raises(SystemExit) as exit_info:
        module.parse_args(argv)
    assert exit_info.value.code == 2 and message in capsys.readouterr().err
    args = module.parse_args([])
    assert (args.rounds, args.seed, args.budget) == (10_000_000, 2026, 5.0)


def test_draw_audit_finds_no_difference_between_a_tree_and_itself(capsys):
    # Base and change both the checkout, on 3 seeds, each in its own
    # interpreter: every configuration reads identical, every field that
    # varies differs by 0 standard errors with a variance ratio of 1, and
    # both sides pass the same gates with the same worst row.
    module = load_script("draw_audit")
    root = str(Path(__file__).resolve().parents[1])
    assert module.main(["--base", root, "--change", root, "--seeds", "0-2"]) == 0
    out = capsys.readouterr().out
    assert out.count("reports identical on 3 of 3 seeds") == len(module.configurations()) == 12
    fields = re.findall(r"^   \S+ +\S+ +\S+ +(\S+) +(\S+)$", out, re.MULTILINE)
    assert fields and set(fields) == {("+0.00", "1.000")}
    gates = re.findall(r"base (\d+)/3, change (\d+)/3", out)
    assert len(gates) == 24 and all(b == c for b, c in gates)
    base, change = (re.findall(rf"^  {side}: (.*)$", out, re.MULTILINE) for side in ("base", "change"))
    assert len(base) == 2 and base == change


@pytest.mark.parametrize("seeds", ("3-2", "-1", "a-b", "0-"))
def test_draw_audit_rejects_bad_seed_ranges(seeds, capsys):
    module = load_script("draw_audit")
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--base", ".", "--change", ".", "--seeds", seeds])
    assert exit_info.value.code == 2 and "seeds must read A-B" in capsys.readouterr().err


# SHA-256 of the JSON each command prints, recorded before the handlers
# returned payloads for main to serialise; key order, float repr and
# indentation must all hold. The beam-splitting run's is recorded again
# whenever the sampler's draws change, last when every round came to be
# drawn from one multinomial over the categories of the per-detector law.
# The optimize run's was recorded again for the expm1 leakage: best_rate moved 3 ulp.
JSON_DIGESTS = {
    ("optimize", "--L", "400"):
        "2edc884d378bbf88d5c9789c22c342fc5375f9e24c79d6b0c652914a8d19079d",
    ("max-distance", "--mu", "0.84"):
        "0f52953e03664222ff094081206d894f61880da501ba108faece246e8268a3fc",
    ("thresholds",):
        "9abe3c7ab13b98212f367df33588c787c39dbb8f5e01cd1ca91ea7cf60a5f3ba",
    ("simulate", "--rounds", "100000", "--seed", "3", "--attack", "beam-split"):
        "1697238a79d815c7ab8ad2c9b2364c599ca4e5873848e4cf7e9fd5e2f8833f41",
}


@pytest.mark.parametrize("argv", JSON_DIGESTS, ids=lambda argv: argv[0])
def test_json_bytes_unchanged(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[argv]


# SHA-256 of the JSON of a far run, of a dishonest receiver's run with
# checks, of a beam-splitting run with checks (the eve_leak row), of a
# p_d = 0 run (rows of zero variance, rounds_needed None) and of a p_d = 1
# run (every detector clicks). A change to the report or the comparison
# rows may not move a byte; a change to the sampler's draws records them
# again, as when every round came to be drawn from one multinomial over
# the categories of the per-detector law.
SIMULATE_DIGESTS = {
    "beam-split": (("simulate", "--rounds", "200000", "--seed", "5", "--basis-policy", "0.5",
                    "--check-fraction", "0.3", "--attack", "beam-split"),
                   "9ea749958c1f3b5db9a04e1250cd5d58afeb92e8186b479fbbe5af14d2ff8014"),
    "p_d=0": (("simulate", "--p-d", "0", "--rounds", "200000", "--seed", "7", "--basis-policy", "0.5",
               "--check-fraction", "0.3"),
              "1ff0080de67c1a25ade66214289a36fafd858839f8ac2418074db39af94faab5"),
    "p_d=1": (("simulate", "--p-d", "1", "--rounds", "200000", "--seed", "11", "--basis-policy", "0.5",
               "--check-fraction", "0.3"),
              "ba15fd4942fb5d3712febfa7d584bc5721ab832a23570e7754c2a5cd74fb92a8"),
    "far": (("simulate", "--L", "400", "--rounds", "2000000", "--seed", "2026", "--basis-policy", "1"),
            "0a928f4e84f8ddd488b84f8c2e46fcf03a3370fff8137d3791293a496c3ed348"),
    "dishonest-bob": (("simulate", "--rounds", "200000", "--seed", "3", "--basis-policy", "0.5",
                       "--check-fraction", "0.3", "--attack", "dishonest-bob", "--flip", "0.05"),
                      "178256c98e814fa9b12912e06d50be8db8906f63058425f6e4202e86144fbf23"),
}


@pytest.mark.parametrize("case", SIMULATE_DIGESTS)
def test_simulate_json_bytes_unchanged(case, capsys):
    argv, digest = SIMULATE_DIGESTS[case]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_benchmark_imports_still_exist():
    # the benchmark imports these names; a library change that drops one
    # breaks it, and this fails long before the benchmark's own tests do
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    imports = [node for node in ast.walk(ast.parse(source.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "dualqss"]
    assert {node.module for node in imports} >= {"dualqss", "dualqss.cli"}
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


def test_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "sweep", "--lo", "0", "--hi", "100", "--step", "50",
                       "-o", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.splitlines()[1] == HEADER
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".dualqss-")]
    assert leftovers == []


def test_optimize_json(tmp_path, capsys):
    target = tmp_path / "opt.json"
    code, _, _ = run(capsys, "optimize", "--L", "400", "-o", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert list(data) == ["best_mu", "best_rate", "evaluations", "method", "l_km", "params"]
    assert data["method"] == "grid"
    assert data["evaluations"] == 86
    assert 0.5 < data["best_mu"] < 1.2
    assert data["best_rate"] > 0.0


def test_max_distance_json(capsys):
    code, out, _ = run(capsys, "max-distance", "--mu", "0.84")
    assert code == 0
    data = json.loads(out)
    assert data["max_distance_km"] == pytest.approx(458.2, abs=1.0)
    assert data["event"] is None


def test_thresholds_json(capsys):
    code, out, _ = run(capsys, "thresholds")
    assert code == 0
    data = json.loads(out)
    assert data["event1"] == pytest.approx(0.0239, abs=5e-4)
    assert data["event23_reported"] == 0.0208
    assert data["event23_status"] == "unverified"


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "--rounds", "100000", "--seed", "3",
                       "--basis-policy", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["config"]["seed"] == 3
    counts = data["report"]["counts"]
    assert counts["n_xx"] == 100000
    assert isinstance(data["comparison"], list)
    assert data["max_abs_sigma"] >= 0.0


def test_simulate_single_round(capsys):
    code, out, _ = run(capsys, "simulate", "--rounds", "1", "--seed", "1")
    assert code == 0
    counts = json.loads(out)["report"]["counts"]
    assert counts["n_xx"] + counts["n_zz"] + counts["n_mixed"] == 1


def test_sweep_501_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--var", "L", "--lo", "0", "--hi", "500",
                       "--step", "1", "--mu", "0.84")
    assert code == 0
    assert len(out.splitlines()) == 2 + 501


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1.5  # heavier pulse\nL = 200\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--var", "mu",
                       "--lo", "1.5", "--hi", "1.5", "--step", "1")
    assert code == 0
    row = out.splitlines()[2].split(",")
    assert float(row[0]) == 200.0
    assert float(row[1]) == 1.5


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1.5\n")
    code, out, _ = run(capsys, "thresholds", "--config", str(cfg), "--mu", "0.84")
    assert code == 0
    assert json.loads(out)["params"]["mu"] == 0.84


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("muu = 1.5\n")
    code, _, err = run(capsys, "thresholds", "--config", str(cfg))
    assert code == 2
    assert "error:" in err
    assert "muu" in err


def test_config_value_is_typed_by_argparse(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "argument --mu: invalid float value: 'abc'" in capsys.readouterr().err


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just words\n")
    code, _, err = run(capsys, "thresholds", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def test_invalid_parameter_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--mu", "-1")
    assert code == 2
    assert "error:" in err


def test_max_distance_unreachable_exits_2(capsys):
    code, _, err = run(capsys, "max-distance", "--mu", "0.84", "--l-hi", "100")
    assert code == 2
    assert "error:" in err


def test_max_distance_refuses_unbounded_scan_exits_2(capsys):
    # 5e10 scan points at 20 km: refused before any rate is evaluated
    code, out, err = run(capsys, "max-distance", "--l-hi", "1e12")
    assert code == 2 and out == ""
    assert "l_hi" in err


def test_config_skips_blank_and_comment_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# intensity only\n   \n  # indented comment\nmu = 1.5\n\n")
    code, out, _ = run(capsys, "thresholds", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["params"]["mu"] == 1.5


def test_failed_replace_removes_temp_file_and_exits_2(tmp_path, capsys):
    # os.replace cannot put a file over a directory
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run(capsys, "thresholds", "-o", str(target))
    assert code == 2 and out == "" and "error:" in err
    assert os.listdir(tmp_path) == ["out"] and os.listdir(target) == []


def test_json_safe_maps_non_finite_floats():
    nan, inf = float("nan"), float("inf")
    obj = {"a": inf, "b": [-inf, nan, 1.5, (inf,)], "c": {"d": nan, "e": "x"}, "f": None}
    assert cli._json_safe(obj) == {"a": "inf", "b": ["-inf", None, 1.5, ["inf"]],
                                   "c": {"d": None, "e": "x"}, "f": None}
