"""Inputs, operations and output checks of the fblf-ilc benchmark.

A workload is a list of operations (one pass).  Each operation has a
timed ``run`` and an untimed ``check`` that returns the work the run did
(RK4 nodes integrated, or barrier samples evaluated) and a list of
problems; any problem makes the operation count as failed.  Inputs are
drawn from the workload seed only; the program sees the generated
configs, scenarios and arrays.

Only public names that the planned engine, barrier and learner rewrites
keep are used: ``cli.main``, ``engine.run``/``check_delta_L``, the
``RunResult``/``IterationTrace`` fields, ``plant.BUILTIN_MODELS`` and the
barrier and analysis entry points.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fblf_ilc import analysis, barrier, cli, engine, plant
from fblf_ilc.barrier import BarrierKind
from fblf_ilc.controller import ControllerConfig, Mode

WORKLOADS = ("cli-pinned", "sweep", "catalog")
# the calibration loop (see run.Calibration) whose work each one resembles
CALIBRATION = {"cli-pinned": "scalar", "sweep": "scalar", "catalog": "vector"}
SIZES = ("full", "tiny")
# the untimed first pass of a full-size run: caches and lazy imports
# settle, and for cli-pinned the pinned configs' outputs are checked
WARM_SIZE = {"cli-pinned": "pinned", "sweep": "tiny", "catalog": "tiny"}
DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    key: str                      # identifies the inputs; reference lookup key
    run: Callable[[], Any]        # the timed call
    check: Callable[[Any], tuple[int, list[str]]]  # -> (work, problems)
    digest: Callable[[Any], Any] | None = None     # bit-exact fingerprint
    reset: Callable[[], None] | None = None        # untimed, before run


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def build(name: str, seed: int, size: str = "full",
          workdir: Path | None = None) -> list[Op]:
    """The operations of one pass of workload ``name``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if size not in SIZES and (name, size) != ("cli-pinned", "pinned"):
        raise ValueError(f"unknown size {size!r}")
    ref = load_reference()
    if name == "cli-pinned":
        return _cli_pinned(size, workdir, ref)
    if name == "sweep":
        return _sweep(seed, size, ref)
    return _catalog(seed, size)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bit_check(op_key: str, digest, ref: dict, required: bool) -> list[str]:
    want = ref.get(op_key)
    if want is None:
        return [f"{op_key}: no reference recorded"] if required else []
    return [] if digest == want else [f"{op_key}: output differs from reference"]


# ------------------------------------------------------------ cli-pinned
#
# Why: the user-facing path ROADMAP calls end to end.  `simulate` on the
# criterion-4 and criterion-5 configs, one config per call with its own
# --out directory and --svg on; engine per-step cost dominates, CSV
# writing is about 15 % and svgplot runs.  The configs and outputs are
# pinned, so this workload ignores the seed.  The pinned size (N = 2000,
# K = 30) runs untimed in the first pass, where its CSVs are checked
# against the seed commit's; the timed passes run the same configs at
# K = 3.  A six-second operation gives a run too few samples: timed at
# K = 30, ten runs spread by 0.2 to 0.25, whatever the statistic.

PINNED = {
    "criterion-4": {"model": "scalar-I", "theorem": "1", "mode": "disc",
                    "b_V": "0.5"},
    "criterion-5": {"model": "scalar-II", "mode": "disc", "b_e": "1"},
}
PINNED_SIZE = {"pinned": (2000, 30), "full": (2000, 3), "tiny": (100, 3)}


def write_pinned_configs(size: str, workdir: Path) -> dict[str, Path]:
    """The pinned configs at ``size``, written to ``workdir``, by name."""
    N, K = PINNED_SIZE[size]
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, fields in PINNED.items():
        paths[name] = workdir / f"{name}.cfg"
        paths[name].write_text("".join(
            f"{key} = {value}\n"
            for key, value in dict(fields, N=N, K=K).items()))
    return paths


def _valid_rows(trace_csv: bytes) -> int:
    # the last column is the breach flag; breached rows are not integrated
    return sum(1 for row in trace_csv.splitlines()[1:] if row.endswith(b",0"))


def _cli_pinned(size: str, workdir: Path | None, ref: dict):
    if workdir is None:
        raise ValueError("cli-pinned needs a work directory")
    N, K = PINNED_SIZE[size]
    ops = []
    for name, cfg in write_pinned_configs(size, workdir).items():
        out = workdir / name
        key = f"cli-pinned/{name}/N{N}-K{K}"

        def reset(out=out):
            shutil.rmtree(out, ignore_errors=True)

        def run(cfg=cfg, out=out):
            return cli.main(["simulate", str(cfg), "--out", str(out), "--svg"])

        def digest(code, out=out):
            return {f: _sha256(out / f) for f in ("trace.csv", "summary.csv")}

        def check(code, out=out, key=key, digest=digest):
            if code != 0:
                return 0, [f"{key}: exit code {code}, expected 0"]
            missing = [f for f in ("trace.csv", "summary.csv",
                                   "convergence.svg", "constraint.svg")
                       if not (out / f).is_file()]
            if missing:
                return 0, [f"{key}: missing {', '.join(missing)}"]
            problems = _bit_check(key, digest(code), ref, required=True)
            for f in ("convergence.svg", "constraint.svg"):
                if not (out / f).read_bytes().startswith(b"<svg"):
                    problems.append(f"{key}: {f} is not an SVG document")
            return _valid_rows((out / "trace.csv").read_bytes()), problems

        ops.append(Op(key, run, check, digest, reset))
    return ops


# ----------------------------------------------------------------- sweep
#
# Why: the shape of the batched-scenario kernel (ROADMAP item 3): many
# scenarios sharing (model, N, K), as in epsilon/b/gamma/theta_bar
# studies.  Per-run and per-iteration fixed costs (monitor_L,
# check_delta_L, grid and x_d set-up) weigh far more than on cli-pinned
# and nothing is written to disk.  Tight bounds on the coarsest grids
# breach, which exercises the truncation path a masked batch kernel
# must keep.

_COMBOS = (("disc", 1), ("cont", 2), ("cont", 1), ("disc", 2))
# (N, K, scenarios per (model, mode, theorem), bound range as a share of
# the model's reference bound).  Tight bounds breach on N <= 20.  Sorted
# by time, the 16 coarse scenarios come first, then the 24 at N = 50, which
# never breach, and the 16 at N = 400.  The median falls in the middle of
# the N = 50 group and the tail percentile inside the N = 400 group, away
# from the steps in time between groups, so that op_s_p50 and op_s_tail do
# not jump with the seed.
_SWEEP_GRIDS = {
    "full": ((10, 30, 1, (0.05, 1.0)), (20, 30, 1, (0.05, 1.0)),
             (50, 30, 3, (0.5, 2.0)), (400, 10, 2, (0.5, 2.0))),
    "tiny": ((10, 8, 1, (0.05, 1.0)), (40, 8, 1, (0.5, 2.0))),
}
_REF_BOUND = {"scalar-I": 0.5, "scalar-II": 1.0}


@dataclass(frozen=True)
class Scenario:
    model: str
    mode: str
    theorem: int
    N: int
    K: int
    bound: float
    gamma: float
    theta_bar: float
    eps: float | None

    @property
    def key(self) -> str:
        return (f"sweep/{self.model}/{self.mode}/thm{self.theorem}/"
                f"N{self.N}-K{self.K}/b={self.bound!r}/g={self.gamma!r}/"
                f"tb={self.theta_bar!r}/eps={self.eps!r}")


def sweep_scenarios(seed: int, size: str) -> list[Scenario]:
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 6)

    out = []
    for N, K, reps, (lo, hi) in _SWEEP_GRIDS[size]:
        for model, ref_b in _REF_BOUND.items():
            for mode, theorem in _COMBOS:
                for _ in range(reps):
                    out.append(Scenario(
                        model, mode, theorem, N, K,
                        bound=log_uniform(lo * ref_b, hi * ref_b),
                        gamma=round(rng.uniform(0.5, 4.0), 6),
                        theta_bar=round(rng.uniform(0.5, 2.0), 6),
                        eps=(log_uniform(1e-3, 3e-2)
                             if mode == "cont" or theorem == 2 else None)))
    return out


def node_steps(result) -> int:
    """Nodes whose state the integrator accepted (finite V), all iterations."""
    return sum(int(np.count_nonzero(np.isfinite(tr.V))) for tr in result.traces)


def _summary_digest(out) -> str:
    result, verdicts, metrics = out
    rows = [(s.k, s.sup_e, s.sup_V, s.L_T, s.delta_L, s.violations)
            for s in result.summaries]
    rows.append([(v.k, v.delta_L, v.required, v.passed) for v in verdicts])
    if metrics is not None:
        rows.append((metrics.limsup_supV, metrics.bound, metrics.bound_ratio,
                     metrics.e_radius))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _sweep_invariants(sc: Scenario, out) -> list[str]:
    """Output checks that hold for any seed."""
    result, verdicts, metrics = out
    problems = []
    if len(result.traces) != sc.K or len(result.summaries) != sc.K:
        return [f"{sc.key}: {len(result.traces)} iterations, expected {sc.K}"]
    limit = sc.bound ** 2 if sc.model == "scalar-II" else sc.bound
    for tr in result.traces:
        sel = tr.valid
        for name in ("e", "u", "theta_hat"):
            if not np.all(np.isfinite(getattr(tr, name)[sel])):
                problems.append(f"{sc.key}: non-finite {name} at k={tr.k}")
        if sel.stop and float(np.max(np.abs(tr.theta_hat[sel]))) > sc.theta_bar:
            problems.append(f"{sc.key}: |theta_hat| > theta_bar at k={tr.k}")
        if sel.stop and not np.all(tr.V[sel] < limit):
            problems.append(f"{sc.key}: V >= bound on a valid node at k={tr.k}")
    # the delta-L verdicts must follow from the traces; the decrease
    # itself is only guaranteed on fine grids, so it is not required here
    kind = BarrierKind.FII if sc.theorem == 1 else BarrierKind.FV
    residual = (sc.eps or 0.0) * result.grid.T if sc.theorem == 2 else 0.0
    for v in verdicts:
        prev, cur = result.traces[v.k - 1], result.traces[v.k]
        dL = float(cur.L[-1]) - float(prev.L[-1])
        v_prev = float(prev.V[-1])
        decrease = (v_prev if sc.model == "scalar-I"
                    else 0.5 * barrier.blf_eval(kind, v_prev, limit))
        required = residual - decrease
        if (prev.breach or cur.breach or v.delta_L != dL
                or not math.isclose(v.required, required, rel_tol=1e-12,
                                    abs_tol=1e-300)
                or v.passed != (v.delta_L <= v.required + v.slack)):
            problems.append(f"{sc.key}: delta-L verdict at k={v.k} "
                            f"does not follow from the traces")
    intact = [k for k in range(1, sc.K) if not (result.traces[k - 1].breach
                                                or result.traces[k].breach)]
    if [v.k for v in verdicts] != intact:
        problems.append(f"{sc.key}: delta-L verdicts cover {len(verdicts)} "
                        f"iterations, expected {len(intact)}")
    if metrics is not None:
        sup_V = np.array([s.sup_V for s in result.summaries])
        # a breached iteration has sup_V = NaN, and so then has the limsup
        limsup = float(np.max(sup_V[sc.K - max(1, sc.K // 4):]))
        scale = 2.0 if sc.model == "scalar-II" else 1.0
        if (not (metrics.limsup_supV == limsup
                 or math.isnan(metrics.limsup_supV) and math.isnan(limsup))
                or not math.isclose(metrics.bound,
                                    scale * sc.eps * result.grid.T)):
            problems.append(f"{sc.key}: convergence metrics do not follow "
                            f"from the summaries")
    return problems


def sweep_op(sc: Scenario, ref: dict, required: bool) -> Op:
    """One scenario; ``required``: a missing reference is a failure."""
    cfg = ControllerConfig(mode=Mode(sc.mode), bound=sc.bound, gamma=sc.gamma,
                           theta_bar=sc.theta_bar, eps=sc.eps)

    def run():
        # looked up per run so that a traced run can swap the factories
        model = plant.BUILTIN_MODELS[sc.model]()
        result = engine.run(model, cfg, K=sc.K, N=sc.N, theorem=sc.theorem)
        verdicts = engine.check_delta_L(result)
        metrics = (analysis.convergence_metrics(result, sc.eps, result.grid.T)
                   if sc.theorem == 2 else None)
        return result, verdicts, metrics

    def check(out):
        problems = _sweep_invariants(sc, out)
        problems += _bit_check(sc.key, _summary_digest(out), ref, required)
        return node_steps(out[0]), problems

    return Op(sc.key, run, check, _summary_digest)


def _sweep(seed: int, size: str, ref: dict):
    # the reference holds every scenario of the default seed
    return [sweep_op(sc, ref, required=seed == DEFAULT_SEED)
            for sc in sweep_scenarios(seed, size)]


# --------------------------------------------------------------- catalog
#
# Why: the barrier and analysis layers, which the engine does not call
# today.  Vectorised blf_eval/d1/d2 for all seven kinds over large V
# arrays, the ordering and IBP verdicts, the comparison report and the
# sequence-lemma loops.  An engine or learner change must leave it
# unchanged, and a scalar fast path added to barrier must not slow the
# vector path.

# closed forms (value, d1, d2) of the paper's catalog, for spot checks
CLOSED_FORMS = {
    BarrierKind.LI: (lambda V, b: math.log(b / (b - V)),
                     lambda V, b: 1.0 / (b - V),
                     lambda V, b: 1.0 / (b - V) ** 2),
    BarrierKind.LII: (lambda V, b: V + math.log(b / (b - V)),
                      lambda V, b: 1.0 + 1.0 / (b - V),
                      lambda V, b: 1.0 / (b - V) ** 2),
    BarrierKind.FI: (lambda V, b: V / (b - V),
                     lambda V, b: b / (b - V) ** 2,
                     lambda V, b: 2.0 * b / (b - V) ** 3),
    BarrierKind.FII: (lambda V, b: b * V / (b - V),
                      lambda V, b: b * b / (b - V) ** 2,
                      lambda V, b: 2.0 * b * b / (b - V) ** 3),
    BarrierKind.FIII: (lambda V, b: (b + 1.0 - V) * V / (b - V),
                       lambda V, b: 1.0 + b / (b - V) ** 2,
                       lambda V, b: 2.0 * b / (b - V) ** 3),
    BarrierKind.FIV: (lambda V, b: (2.0 * b - V) * V / (b - V),
                      lambda V, b: 1.0 + b * b / (b - V) ** 2,
                      lambda V, b: 2.0 * b * b / (b - V) ** 3),
    BarrierKind.FV: (lambda V, b: (b + 1.0) * V / (b - V),
                     lambda V, b: b * (b + 1.0) / (b - V) ** 2,
                     lambda V, b: 2.0 * b * (b + 1.0) / (b - V) ** 3),
}

# the ordering relations lo <= hi of the catalog; None: any bound,
# otherwise the largest bound the relation applies to
RELATIONS = (
    ("LI", "FI", None), ("FI", "FIII", None), ("LII", "FIII", None),
    ("FII", "FIII", 1.0), ("FII", "FIV", None), ("FI", "FV", None),
    ("FII", "FV", None), ("FIII", "FV", None),
)
IBP_LIMIT = {"LI": None, "FI": None, "LII": 1.0, "FII": 1.0, "FIII": 1.0,
             "FV": 1.0, "FIV": 2.0}

_CATALOG_SIZE = {  # samples per array, bounds, verify samples, lemma length
    "full": (1 << 20, 3, 20_000, 20_000),
    "tiny": (256, 1, 100, 200),
}


def _blf_group(kind: BarrierKind, V: np.ndarray, b: float, key: str, rng):
    spots = rng.sample(range(len(V)), min(8, len(V)))

    def run():
        return (barrier.blf_eval(kind, V, b), barrier.blf_d1(kind, V, b),
                barrier.blf_d2(kind, V, b))

    def check(out):
        problems = []
        for q, arr in enumerate(out):
            if arr.shape != V.shape or not np.all(np.isfinite(arr)):
                problems.append(f"{key}: output {q} has wrong shape or "
                                f"non-finite entries")
                continue
            if not (np.all(arr >= 0.0) if q == 0 else np.all(arr > 0.0)):
                problems.append(f"{key}: output {q} has the wrong sign")
            form = CLOSED_FORMS[kind][q]
            for i in spots:
                if not math.isclose(float(arr[i]), form(float(V[i]), b),
                                    rel_tol=1e-12, abs_tol=1e-300):
                    problems.append(f"{key}: output {q} differs from the "
                                    f"closed form at V={float(V[i])!r}")
                    break
        return 3 * V.size, problems

    return Op(key, run, check)


def _order_group(b: float, samples: int):
    """Every catalog relation that applies at b, and one reversed pair."""
    pairs = [(lo, hi, True) for lo, hi, max_b in RELATIONS
             if max_b is None or b <= max_b]
    pairs.append(("FI", "LI", False))
    key = f"catalog/order/b={b!r}"

    def run():
        return [barrier.verify_order(BarrierKind(lo), BarrierKind(hi), b,
                                     samples=samples) for lo, hi, _ in pairs]

    def check(verdicts):
        bad = [f"{lo}<={hi}" for (lo, hi, want), v in zip(pairs, verdicts)
               if v.holds != want]
        return 6 * samples * len(pairs), [f"{key}: wrong ordering verdict "
                                          f"for {', '.join(bad)}"] if bad else []

    return Op(key, run, check)


def _ibp_group(V: float):
    key = f"catalog/ibp/V={V!r}"
    seq = barrier.default_bound_sequence()

    def run():
        return [barrier.ibp_probe(kind, V, seq) for kind in BarrierKind]

    def check(probes):
        problems = []
        for kind, probe in zip(BarrierKind, probes):
            c = IBP_LIMIT[kind.value]
            ok = (not probe.ibp_holds if c is None else
                  probe.ibp_holds and abs(probe.c_estimate - c) <= 1e-4)
            if not ok:
                problems.append(f"{key}: {kind.value} verdict "
                                f"{probe.ibp_holds}, c={probe.c_estimate!r}")
        return len(seq) * len(probes), problems

    return Op(key, run, check)


def _report_group(bounds: list[float]):
    key = f"catalog/report/{bounds!r}"

    def run():
        return analysis.blf_report(bounds)

    def check(report):
        problems = []
        if not report.all_hold:
            problems.append(f"{key}: report does not hold")
        if len(report.relations) != len(RELATIONS) * len(bounds):
            problems.append(f"{key}: {len(report.relations)} relation rows")
        return 0, problems

    return Op(key, run, check)


def _lemma_group(length: int, with_residual: bool, violate_at: int | None,
                 rng: np.random.Generator):
    """r_k <= r_{k-1} - s_k (+ d_k), optionally broken at one index."""
    s = rng.uniform(0.0, 1.0, length) * 0.99 ** np.arange(length)
    d = rng.uniform(0.0, 0.5, length) if with_residual else np.zeros(length)
    slack = rng.uniform(0.0, 0.1, length)
    s[0] = d[0] = slack[0] = 0.0
    r = 1e3 + np.cumsum(d - s - slack)
    if violate_at is not None:
        r[violate_at:] += 1.0 + s[violate_at]
    seq = analysis.SequenceTriple(r, s, d if with_residual else None)
    key = (f"catalog/lemma{2 if with_residual else 1}/n={length}/"
           f"violate={violate_at}")

    def run():
        if with_residual:
            return analysis.lemma2_check(seq)
        return analysis.lemma1_check(seq)

    def check(verdict):
        want = (violate_at is None, violate_at)
        got = (verdict.inequality_holds, verdict.first_violation)
        ok = got == want and verdict.r_bounded
        return 0, [] if ok else [f"{key}: verdict {got}, expected {want}"]

    return Op(key, run, check)


def _catalog(seed: int, size: str):
    n, n_bounds, samples, length = _CATALOG_SIZE[size]
    rng = random.Random(seed)
    nrng = np.random.default_rng(rng.getrandbits(64))
    bounds = sorted(round(math.exp(rng.uniform(math.log(0.1), math.log(20.0))),
                          6) for _ in range(n_bounds))
    ops = []
    for b in bounds:
        V = nrng.uniform(0.0, b * (1.0 - 1e-3), n)
        for kind in BarrierKind:
            ops.append(_blf_group(kind, V, b, f"catalog/blf/{kind.value}/"
                                  f"b={b!r}", rng))
        ops.append(_order_group(b, samples))
    ops.append(_ibp_group(round(rng.uniform(0.05, 1.0), 6)))
    ops.append(_report_group(bounds))
    for with_residual in (False, True):
        ops.append(_lemma_group(length, with_residual, None, nrng))
        ops.append(_lemma_group(length, with_residual,
                                rng.randrange(length * 9 // 10, length), nrng))
    return ops
