"""Command-line interface emitting reproducible CSV and JSON outputs.

Commands: sweep (rate curves as CSV), ie-compare (the same sweep with
the four leakage columns added), optimize (best intensity by grid search
and golden-section refinement), max-distance, thresholds, and simulate
(Monte-Carlo run with analytic comparison). A flat key=value config file
can preload any flag; explicit flags win. Each command handler takes the
parsed flags and the ``SystemParams`` they give, and returns CSV text or
a JSON payload; ``main`` builds the parameters, serialises a payload and
writes the output once, atomically when it goes to a file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

from .attack import TapParams, ie_dps_tf, ie_wcp_ph, ie_wcp_pol
from .detectors import SystemParams, arm_efficiency
from .montecarlo import ATTACKS, SimConfig, compare_to_analytic, max_abs_sigma, simulate
from .optimize import SweepSpec, SweepVariable, max_distance, optimize_mu, sweep
from .rates import (
    QBER_THRESHOLD_EVENT23_REPORTED,
    plob_bound,
    qber_threshold_event1,
)

__all__ = ["main"]

_FLOAT_FMT = "%.10g"

_CSV_HEADER = "L_km,mu,R,R_event1,R_event2,R_event3,I_E,PLOB"
_CSV_IE_EXTRA = ",IE_dual,IE_ph,IE_pol,IE_dps"

# The physics flags: (argparse name, SystemParams field, help). Their
# defaults are SystemParams' own; the echo line follows this order.
_PHYSICS = (
    ("mu", "mu", "source mean photon number"),
    ("L", "l_km", "total distance in km"),
    ("alpha", "alpha", "fiber attenuation dB/km"),
    ("eta_d", "eta_d", "detector efficiency"),
    ("p_d", "p_d", "dark count probability"),
    ("f", "f", "error-correction inefficiency"),
)


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _config_args(args: argparse.Namespace) -> list[str]:
    """The config file of ``args`` as flags for the same command.

    The file is flat key=value lines; # starts a comment. Parsed ahead of
    the command line, so that explicit flags win and argparse does all
    the typing.
    """
    flags = []
    with open(args.config, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{args.config}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in vars(args) or key in ("command", "config"):
                raise ValueError(f"unknown config key {key!r}")
            flags += ["--" + key.replace("_", "-"), value]
    return flags


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dualqss-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_safe(obj):
    """Replace non-finite floats so the emitted JSON stays standard."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return None
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _add_physics_args(parser: argparse.ArgumentParser, defaults: SystemParams = SystemParams()) -> None:
    for name, field, help_text in _PHYSICS:
        parser.add_argument("--" + name.replace("_", "-"), type=float,
                            default=getattr(defaults, field), help=help_text)
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    parser.add_argument("--output", "-o", type=str, default=None, help="output file (default stdout)")


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    _add_physics_args(parser)
    parser.add_argument("--var", choices=("L", "mu"), default="L", help="swept variable")
    parser.add_argument("--lo", type=float, default=0.0, help="sweep start")
    parser.add_argument("--hi", type=float, default=500.0, help="sweep end")
    parser.add_argument("--step", type=float, default=1.0, help="sweep step")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="dualqss",
        description="Key rates of the dual-degree-of-freedom quantum secret sharing protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="rate curve as CSV")
    _add_sweep_args(p_sweep)

    p_ie = sub.add_parser("ie-compare", help="sweep with the four leakage columns")
    _add_sweep_args(p_ie)

    p_opt = sub.add_parser("optimize", help="best source intensity at a distance")
    _add_physics_args(p_opt, SystemParams(l_km=400.0))
    p_opt.add_argument("--lo", type=float, default=0.1, help="intensity lower bound")
    p_opt.add_argument("--hi", type=float, default=2.0, help="intensity upper bound")

    p_max = sub.add_parser("max-distance", help="largest distance with positive rate")
    _add_physics_args(p_max)
    p_max.add_argument("--l-hi", type=float, default=1000.0, help="search upper bound in km")
    p_max.add_argument("--event", type=int, choices=(1, 2, 3), default=None,
                       help="restrict to one event class")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo run with analytic comparison")
    _add_physics_args(p_sim)
    p_sim.add_argument("--rounds", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--basis-policy", type=float, default=SimConfig.basis_policy,
                       help="probability of choosing the X basis per sender")
    p_sim.add_argument("--check-fraction", type=float, default=SimConfig.check_fraction,
                       help="fraction of X key events sacrificed for checking")
    p_sim.add_argument("--attack", choices=[a.replace("_", "-") for a in ATTACKS],
                       default=SimConfig.attack)
    p_sim.add_argument("--flip", type=float, default=SimConfig.flip_fraction,
                       help="dishonest receiver's announcement flip probability")

    p_thr = sub.add_parser("thresholds", help="tolerable QBER thresholds")
    _add_physics_args(p_thr)
    return parser


def _echo_params(args: argparse.Namespace, extra: dict) -> str:
    items = {name: _fmt(getattr(args, name)) for name, _, _ in _PHYSICS}
    items.update(extra)
    joined = " ".join(f"{k}={v}" for k, v in items.items())
    return f"# params: {joined}\n"


def cmd_sweep(args: argparse.Namespace, sp: SystemParams) -> str:
    ie_compare = args.command == "ie-compare"
    spec = SweepSpec(variable=SweepVariable(args.var), lo=args.lo, hi=args.hi, step=args.step,
                     fixed=sp)
    header = _CSV_HEADER + (_CSV_IE_EXTRA if ie_compare else "") + "\n"
    row = ",".join([_FLOAT_FMT] * (header.count(",") + 1)) + "\n"  # one % per CSV line
    lines = [
        _echo_params(
            args,
            {
                "var": args.var,
                "lo": _fmt(args.lo),
                "hi": _fmt(args.hi),
                "step": _fmt(args.step),
                "ie_compare": str(ie_compare).lower(),
            },
        ),
        header,
    ]
    for point in sweep(spec):
        values = (point.l_km, point.mu, point.r, *point.r_events, point.i_e, plob_bound(point.l_km, args.alpha))
        if ie_compare:
            # IE_dual is the I_E column: the rate kernel's leakage is ie_dual of this tap
            tap = TapParams(mu=point.mu, eta_t=arm_efficiency(args.eta_d, args.alpha, point.l_km))
            values += (point.i_e, ie_wcp_ph(tap), ie_wcp_pol(tap), ie_dps_tf(tap))
        lines.append(row % values)
    return "".join(lines)


def cmd_optimize(args: argparse.Namespace, sp: SystemParams) -> dict:
    result = optimize_mu(args.L, sp, bounds=(args.lo, args.hi))
    return {**asdict(result), "l_km": args.L, "params": asdict(sp)}


def cmd_max_distance(args: argparse.Namespace, sp: SystemParams) -> dict:
    value = max_distance(args.mu, sp, l_hi=args.l_hi, event=args.event)
    return {
        "max_distance_km": value,
        "event": args.event,
        "params": asdict(sp),
    }


def cmd_simulate(args: argparse.Namespace, sp: SystemParams) -> dict:
    config = SimConfig(
        sp=sp,
        rounds=args.rounds,
        seed=args.seed,
        basis_policy=args.basis_policy,
        check_fraction=args.check_fraction,
        attack=args.attack.replace("-", "_"),
        flip_fraction=args.flip,
    )
    report = simulate(config)
    comparison = compare_to_analytic(report)
    return {
        "report": report.to_dict(),
        "comparison": comparison,
        "max_abs_sigma": max_abs_sigma(comparison),
    }


def cmd_thresholds(args: argparse.Namespace, sp: SystemParams) -> dict:
    return {
        "event1": qber_threshold_event1(sp),
        "event23_reported": QBER_THRESHOLD_EVENT23_REPORTED,
        "event23_status": "unverified",
        "params": asdict(sp),
    }


_COMMANDS = {
    "sweep": cmd_sweep,
    "ie-compare": cmd_sweep,
    "optimize": cmd_optimize,
    "max-distance": cmd_max_distance,
    "simulate": cmd_simulate,
    "thresholds": cmd_thresholds,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(argv[:1] + _config_args(args) + argv[1:])
        sp = SystemParams(**{field: getattr(args, name) for name, field, _ in _PHYSICS})
        out = _COMMANDS[args.command](args, sp)
        if isinstance(out, dict):
            out = json.dumps(_json_safe(out), indent=2) + "\n"
        _write_text(args.output, out)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
