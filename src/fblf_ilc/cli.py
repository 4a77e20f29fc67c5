"""Command-line entry point.

Subcommands:
  simulate <config>...   closed-loop runs from flat key=value config files
  compare-blf <b>...     ordering/IBP verdict table for given bounds
  check-lemmas <csv>     sequence-lemma verification on r,s[,d] columns

Exit codes: 0 ok, 1 usage/config/IO error, 2 constraint breach, 3 property
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
from .barrier import BarrierDomainError
from .controller import ControllerConfig, Mode
from .plant import BUILTIN_MODELS, scheme, value_bound


class ConfigError(Exception):
    pass


# a numerical failure exits 4 with one line, never as a traceback: a
# blow-up, an overflow, a division by zero (a bound too small for
# floats) or a sample grid that reaches the bound
_NUMERICAL = (engine.NonFiniteStateError, OverflowError, FloatingPointError,
              ZeroDivisionError, BarrierDomainError)


def _fail(code: int, message: str) -> int:
    """Print `error: <message>` as one stderr line, escaping each unprintable
    character (a newline, an ESC, a NUL) as repr does; return code."""
    print("error: " + "".join(c if c.isprintable() else repr(c)[1:-1]
                              for c in message), file=sys.stderr)
    return code


def _raising(fn, *args):
    """fn(*args) with numpy's overflow, invalid value and division by
    zero raised as FloatingPointError, never printed as a warning."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return fn(*args)


# key -> (type, default); a key whose default is None is absent until set
_FIELDS = {
    "model": (str, None),
    "theorem": (int, 1),
    "mode": (Mode, None),  # when absent, cont if the theorem is smoothed
    "eps": (float, None),
    "gamma": (float, 2.0),
    "theta_bar": (float, 1.0),
    "K": (int, 30),
    "N": (int, 2000),
    "T": (float, None),
    "out": (str, None),
}

# the controller's fields are checked by ControllerConfig
_POSITIVE = ("K", "T")


@dataclass(frozen=True, kw_only=True)
class RunConfig(ControllerConfig):
    """A parsed config: the controller the engine runs, plus the run's
    model, theorem, size and output directory.  bound is the value of
    the model type's bound_key."""
    model: str
    theorem: int
    K: int
    N: int
    T: float | None
    out: str | None


def parse_config(path) -> RunConfig:
    """Parse a flat key = value config file.

    Read here: the syntax, unknown keys and keys set twice, each value's
    type and that a float is finite (named with its line number), the
    model name, K and T > 0 and N >= 2.  Each built-in model type is
    built once for its bound_key: the chosen type's bound field is a
    required positive float, another type's is rejected.  plant.scheme
    rejects a theorem outside the type's table, and ControllerConfig
    the controller's fields.  Each error raises ConfigError naming path.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config path is not a file: {path}" if path.exists()
                          else f"config file not found: {path}")
    models = {name: factory() for name, factory in BUILTIN_MODELS.items()}
    bound_keys = [m.bound_key for m in models.values()]
    values = {k: default for k, (_, default) in _FIELDS.items()
              if default is not None}
    lines = {}  # key -> the line that set it
    try:
        # utf-8-sig: a byte-order mark is not part of the first key
        text = path.read_text(encoding="utf-8-sig")
    except (UnicodeDecodeError, OSError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        typ = float if key in bound_keys else _FIELDS.get(key, (None,))[0]
        if typ is None:
            raise ConfigError(f"{path}:{lineno}: unknown field '{key}'")
        if key in lines:
            raise ConfigError(f"{path}: field '{key}' is set twice, on lines "
                              f"{lines[key]} and {lineno}")
        lines[key] = lineno
        try:
            values[key] = typ(raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value for field "
                              f"'{key}': {raw!r}")
        if typ is float and not math.isfinite(values[key]):
            raise ConfigError(f"{path}:{lineno}: field '{key}' must be "
                              f"finite, got {raw!r}")

    model = values.get("model")
    if model not in models:
        raise ConfigError(f"{path}: field 'model' must be one of "
                          f"{sorted(models)}, got {model!r}")
    bound_key = models[model].bound_key
    for key in _POSITIVE + (bound_key,):
        if key in values and not values[key] > 0:
            raise ConfigError(f"{path}: field '{key}' must be positive, "
                              f"got {values[key]}")
    if values["N"] < 2:
        raise ConfigError(f"{path}: field 'N' must be >= 2, got {values['N']}")
    for key in bound_keys:
        if key != bound_key and key in values:
            raise ConfigError(f"{path}: field '{key}' does not apply to "
                              f"model {model}")
    if bound_key not in values:
        raise ConfigError(f"{path}: field '{bound_key}' is required for "
                          f"model {model}")

    # the theorem table and the controller's rules raise ValueError
    try:
        smoothed = scheme(models[model], values["theorem"]).smoothed
        values.setdefault("mode", Mode.CONT if smoothed else Mode.DISC)
        return RunConfig(**{key: values.get(key) for key in _FIELDS},
                         bound=values[bound_key])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _out_dir_blocked(out_dir: Path) -> str | None:
    """Why out_dir cannot be created, if that shows before writing: the
    nearest existing one of it and its parents is not a directory, or the
    OS rejects the path (a NUL byte in it raises ValueError, a symlink
    loop RuntimeError before Python 3.13)."""
    try:
        out_dir.resolve()
        for path in (out_dir, *out_dir.parents):
            if path.exists():
                return None if path.is_dir() else f"{path} is not a directory"
    except (OSError, RuntimeError, ValueError) as exc:
        return str(exc)
    return None


def _run_one(cfg: RunConfig) -> engine.RunResult:
    factory = BUILTIN_MODELS[cfg.model]
    model = factory(cfg.T) if cfg.T is not None else factory()
    return engine.run(model, cfg, K=cfg.K, N=cfg.N, theorem=cfg.theorem)


def _write_outputs(result: engine.RunResult, out_dir: Path, svg: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_trace_csv(result, out_dir / "trace.csv")
    engine.write_summary_csv(result, out_dir / "summary.csv")
    if svg:
        ks = [s.k for s in result.summaries]
        svgplot.line_plot(out_dir / "convergence.svg", ks, "sup|e_k|",
                          [s.sup_e for s in result.summaries],
                          title="tracking error per iteration",
                          xlabel="iteration k", ylabel="sup |e|", ylog=True)
        svgplot.line_plot(out_dir / "constraint.svg", ks, "sup V_k",
                          [s.sup_V for s in result.summaries],
                          title="constrained quantity per iteration",
                          xlabel="iteration k", ylabel="sup V",
                          hline=value_bound(result.model, result.config.bound))


def cmd_simulate(args) -> int:
    runs, claimed = [], {}
    for cfg_path in args.config:
        try:
            cfg = parse_config(cfg_path)
        except ConfigError as exc:
            return _fail(1, str(exc))
        out_dir = Path(args.out or cfg.out or Path(cfg_path).with_suffix("").name)
        blocked = _out_dir_blocked(out_dir)
        if blocked is not None:
            return _fail(1, f"cannot write to {out_dir}: {blocked}")
        key = out_dir.resolve()
        if key in claimed:
            return _fail(1, f"{claimed[key]} and {cfg_path} both write to "
                            f"{out_dir}")
        claimed[key] = cfg_path
        runs.append((cfg_path, cfg, out_dir))
    codes = []
    for cfg_path, cfg, out_dir in runs:
        # a run does no I/O: an OSError comes from writing its outputs
        try:
            result = _raising(_run_one, cfg)
            _write_outputs(result, out_dir, args.svg)
            codes.append(2 if result.any_breach else 0)
        except _NUMERICAL as exc:
            codes.append(_fail(4, f"{cfg_path}: numerical failure: "
                                  f"{type(exc).__name__}: {exc}"))
        except MemoryError as exc:
            codes.append(_fail(1, f"{cfg_path}: out of memory: {exc}"))
        except OSError as exc:
            codes.append(_fail(1, f"{cfg_path}: cannot write output: {exc}"))
    return max(codes)


def cmd_compare_blf(args) -> int:
    for b in args.bounds:
        if not (b > 0 and math.isfinite(b)):
            return _fail(1, f"bounds must be positive and finite, got {b}")
    try:
        report = _raising(analysis.blf_report, args.bounds)
    except _NUMERICAL as exc:
        return _fail(4, f"numerical failure: {type(exc).__name__}: {exc}")
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(out_dir / "blf_report.csv")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        return _fail(1, f"cannot write output: {exc}")
    print(report.to_text(), end="")
    return 0 if report.all_hold else 3


def _column(rows, name) -> list[float]:
    """One CSV column as floats; a bad cell or a long row names its index."""
    values = []
    for k, row in enumerate(rows):
        if None in row:  # DictReader files the extra fields under None
            raise ValueError(f"row {k} has more fields than the header")
        cell = row[name]
        if cell is None or not cell.strip():
            raise ValueError(f"{name}[{k}] is missing")
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(
                f"{name}[{k}] is not a number: {cell!r}") from None
    return values


def cmd_check_lemmas(args) -> int:
    path = Path(args.csv)
    try:
        if not path.is_file():
            return _fail(1, f"path is not a file: {path}" if path.exists()
                         else f"file not found: {path}")
        # utf-8-sig: a byte-order mark, as Excel writes, is not part of "r"
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            columns = reader.fieldnames or []
        if "r" not in columns or "s" not in columns:
            raise ValueError("CSV must have columns r,s[,d]")
        for name in ("r", "s", "d"):
            if columns.count(name) > 1:  # DictReader keeps the last one
                raise ValueError(f"column {name} is named more than once")
        if not rows:
            raise ValueError("no data rows")
        seq = analysis.SequenceTriple(
            _column(rows, "r"), _column(rows, "s"),
            _column(rows, "d") if "d" in columns else None)
    except OSError as exc:
        return _fail(1, f"cannot read {path}: {exc}")
    except (csv.Error, ValueError, KeyError, TypeError) as exc:
        return _fail(1, f"malformed CSV: {exc}")
    verdict = analysis.lemma2_check(seq)
    which = ("lemma 2 (with residual)" if "d" in columns
             else "lemma 1 (no residual)")
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
    # "*": _parse requires a bound once it has added those argparse took
    # for options
    cmp_.add_argument("bounds", nargs="*", type=float)
    cmp_.add_argument("--out", help="output directory")
    cmp_.set_defaults(fn=cmd_compare_blf)

    chk = sub.add_parser("check-lemmas", help="verify sequence lemmas on a CSV")
    chk.add_argument("csv", help="CSV with columns r,s[,d]")
    chk.set_defaults(fn=cmd_check_lemmas)
    return p


def _reads_as_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def _parse(argv) -> argparse.Namespace:
    """argv as build_parser parses it, where compare-blf's bounds also
    take each left-over string that starts with '-' and that float reads.
    argparse reads only -<digits> and -<digits>.<digits> as negative
    numbers, so it leaves a bound such as -1e-3, -5e-324 or -inf over as
    an unknown option; cmd_compare_blf then rejects it in one line."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "compare-blf":
        negative = [s for s in extra
                    if s.startswith("-") and _reads_as_float(s)]
        args.bounds += map(float, negative)
        extra = [s for s in extra if s not in negative]
        if not args.bounds:
            parser.error("compare-blf: the following arguments are required: "
                         "bounds")
    if extra:  # as parse_args words it
        parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return 1 if exc.code == 2 else exc.code
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
