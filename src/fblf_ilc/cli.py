"""Command-line entry point.

Subcommands:
  simulate <config>...   closed-loop runs from flat key=value config files
  compare-blf <b>...     ordering/IBP verdict table for given bounds
  check-lemmas <csv>     sequence-lemma verification on r,s[,d] columns

Exit codes: 0 ok, 1 config/IO error, 2 constraint breach, 3 property
violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, engine, svgplot
from .controller import ControllerConfig, Mode
from .plant import BUILTIN_MODELS


class ConfigError(Exception):
    pass


_CONFIG_KEYS = {
    "model": str,
    "theorem": int,
    "mode": str,
    "eps": float,
    "b_V": float,
    "b_e": float,
    "gamma": float,
    "theta_bar": float,
    "K": int,
    "N": int,
    "T": float,
    "out": str,
    "svg": bool,
    "allow_disc_thm2": bool,
}

_DEFAULTS = {
    "theorem": 1,
    "mode": "disc",
    "gamma": 2.0,
    "theta_bar": 1.0,
    "K": 30,
    "N": 2000,
    "svg": False,
    "allow_disc_thm2": False,
}

_POSITIVE = ("eps", "b_V", "b_e", "gamma", "theta_bar", "K", "N", "T")


@dataclass
class RunConfig:
    model: str
    theorem: int
    mode: str
    eps: float | None
    bound: float  # the value of the model type's bound_key
    gamma: float
    theta_bar: float
    K: int
    N: int
    T: float | None
    out: str | None
    svg: bool


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_config(path) -> RunConfig:
    """Parse a flat key = value config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown field '{key}'")
        typ = _CONFIG_KEYS[key]
        try:
            values[key] = _parse_bool(raw) if typ is bool else typ(raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value for field "
                              f"'{key}': {raw!r}")
        if typ is float and not math.isfinite(values[key]):
            raise ConfigError(f"{path}:{lineno}: field '{key}' must be "
                              f"finite, got {raw!r}")
    for key, default in _DEFAULTS.items():
        values.setdefault(key, default)

    model = values.get("model")
    if model not in BUILTIN_MODELS:
        raise ConfigError(f"field 'model' must be one of "
                          f"{sorted(BUILTIN_MODELS)}, got {model!r}")
    for key in _POSITIVE:
        if key in values and not values[key] > 0:
            raise ConfigError(f"field '{key}' must be positive, got {values[key]}")
    if values["N"] < 2:
        raise ConfigError(f"field 'N' must be >= 2, got {values['N']}")
    theorem = values["theorem"]
    if theorem not in (1, 2):
        raise ConfigError(f"field 'theorem' must be 1 or 2, got {theorem}")
    mode = values["mode"]
    if mode not in ("disc", "cont"):
        raise ConfigError(f"field 'mode' must be 'disc' or 'cont', got {mode!r}")
    if mode == "cont" and "eps" not in values:
        raise ConfigError("field 'eps' is required in continuous mode")
    if theorem == 2 and mode != "cont" and not values["allow_disc_thm2"]:
        raise ConfigError("field 'mode' must be 'cont' for theorem 2 "
                          "(set allow_disc_thm2 = true to override)")

    bound_key = BUILTIN_MODELS[model]().bound_key
    for key in ("b_V", "b_e"):
        if key != bound_key and key in values:
            raise ConfigError(f"field '{key}' does not apply to model {model}")
    if bound_key not in values:
        raise ConfigError(f"field '{bound_key}' is required for model {model}")

    return RunConfig(
        model=model, theorem=theorem, mode=mode,
        eps=values.get("eps"), bound=values[bound_key],
        gamma=values["gamma"], theta_bar=values["theta_bar"],
        K=values["K"], N=values["N"], T=values.get("T"),
        out=values.get("out"), svg=values["svg"],
    )


def _file_in_the_way(out_dir: Path) -> Path | None:
    """The nearest existing one of out_dir and its parents, if it is not
    a directory (so out_dir cannot be created)."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            return None if path.is_dir() else path
    return None


def _run_one(cfg: RunConfig) -> engine.RunResult:
    factory = BUILTIN_MODELS[cfg.model]
    model = factory(cfg.T) if cfg.T is not None else factory()
    ctl_cfg = ControllerConfig(mode=Mode(cfg.mode), bound=cfg.bound,
                               gamma=cfg.gamma, theta_bar=cfg.theta_bar,
                               eps=cfg.eps)
    return engine.run(model, ctl_cfg, K=cfg.K, N=cfg.N, theorem=cfg.theorem)


def _write_outputs(result: engine.RunResult, cfg: RunConfig, out_dir: Path,
                   svg: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_trace_csv(result, out_dir / "trace.csv")
    engine.write_summary_csv(result, out_dir / "summary.csv")
    if svg:
        ks = [s.k for s in result.summaries]
        svgplot.line_plot(out_dir / "convergence.svg", ks,
                          [("sup|e_k|", [s.sup_e for s in result.summaries])],
                          title="tracking error per iteration",
                          xlabel="iteration k", ylabel="sup |e|", ylog=True)
        svgplot.line_plot(out_dir / "constraint.svg", ks,
                          [("sup V_k", [s.sup_V for s in result.summaries])],
                          title="constrained quantity per iteration",
                          xlabel="iteration k", ylabel="sup V",
                          hline=cfg.bound ** result.model.bound_power)


def cmd_simulate(args) -> int:
    runs, claimed = [], {}
    for cfg_path in args.config:
        try:
            cfg = parse_config(cfg_path)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out_dir = Path(args.out or cfg.out or Path(cfg_path).with_suffix("").name)
        key = out_dir.resolve()
        if key in claimed:
            print(f"error: {claimed[key]} and {cfg_path} both write to "
                  f"{out_dir}", file=sys.stderr)
            return 1
        claimed[key] = cfg_path
        blocker = _file_in_the_way(out_dir)
        if blocker is not None:
            print(f"error: cannot write to {out_dir}: {blocker} is not a "
                  f"directory", file=sys.stderr)
            return 1
        runs.append((cfg_path, cfg, out_dir, args.svg or cfg.svg))
    codes = []
    for cfg_path, cfg, out_dir, svg in runs:
        try:
            with np.errstate(over="raise", invalid="raise"):
                result = _run_one(cfg)
        except (engine.NonFiniteStateError, OverflowError,
                FloatingPointError) as exc:
            print(f"error: {cfg_path}: numerical failure: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(4)
            continue
        try:
            _write_outputs(result, cfg, out_dir, svg)
        except OSError as exc:
            print(f"error: {cfg_path}: cannot write output: {exc}",
                  file=sys.stderr)
            codes.append(1)
            continue
        codes.append(2 if result.any_breach else 0)
    return max(codes)


def cmd_compare_blf(args) -> int:
    for b in args.bounds:
        if not (b > 0 and math.isfinite(b)):
            print(f"error: bounds must be positive and finite, got {b}",
                  file=sys.stderr)
            return 1
    try:
        # the vector closed forms overflow to inf and 0 for large bounds
        with np.errstate(over="raise", invalid="raise"):
            report = analysis.blf_report(args.bounds)
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(out_dir / "blf_report.csv")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    print(report.to_text(), end="")
    return 0 if report.all_hold else 3


def cmd_check_lemmas(args) -> int:
    path = Path(args.csv)
    if not path.is_file():
        print(f"error: file not found: {path}", file=sys.stderr)
        return 1
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows or "r" not in rows[0] or "s" not in rows[0]:
            raise ValueError("CSV must have columns r,s[,d]")
        r = np.array([float(row["r"]) for row in rows])
        s = np.array([float(row["s"]) for row in rows])
        d = None
        if "d" in rows[0] and rows[0]["d"] is not None:
            d = np.array([float(row["d"]) for row in rows])
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
        return 1
    if d is None:
        verdict = analysis.lemma1_check(analysis.SequenceTriple(r, s))
        which = "lemma 1 (no residual)"
    else:
        verdict = analysis.lemma2_check(analysis.SequenceTriple(r, s, d))
        which = "lemma 2 (with residual)"
    print(f"{which}: inequality "
          f"{'holds' if verdict.inequality_holds else 'VIOLATED'}"
          + ("" if verdict.first_violation is None
             else f" (first violation at k={verdict.first_violation})"))
    print(f"  tail estimate of s: {verdict.s_tail_estimate:.6g}")
    if verdict.s_vanishes is not None:
        print(f"  s vanishes with d: {verdict.s_vanishes}")
    return 0 if verdict.inequality_holds else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fblf-ilc",
                                description="barrier-constrained ILC simulator")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run closed-loop simulations")
    sim.add_argument("config", nargs="+", help="flat key=value config file(s)")
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--svg", action="store_true", help="emit SVG plots")
    sim.set_defaults(fn=cmd_simulate)

    cmp_ = sub.add_parser("compare-blf", help="barrier ordering/IBP report")
    cmp_.add_argument("bounds", nargs="+", type=float)
    cmp_.add_argument("--out", help="output directory")
    cmp_.set_defaults(fn=cmd_compare_blf)

    chk = sub.add_parser("check-lemmas", help="verify sequence lemmas on a CSV")
    chk.add_argument("csv", help="CSV with columns r,s[,d]")
    chk.set_defaults(fn=cmd_check_lemmas)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
