"""fblf-ilc benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {cli-pinned,sweep,catalog} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from
``src/``.  Load is one single-threaded process: no worker pool, and the
BLAS thread count is pinned to 1 before numpy is imported.

A run measures passes over the workload's operations while another one
fits in ``--seconds`` (at least one), checks every output, and prints one
line per metric followed by a last line of JSON with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation's time is its
median over the passes, each scaled to the reference box's typical speed
by a calibration loop timed just before and after it (see
``Calibration``); raw times are printed too.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced:

* ``setup_s``: median time, over ``SETUP_PROBES`` fresh interpreters,
  to import fblf_ilc, parse the two pinned configs and build their
  controller configs and models through the public API (the same for
  every workload, and unscaled);
* ``wall_s``: time of one pass, the sum of the operations' times;
* ``op_s_p50``, ``op_s_tail``: per-operation time, median and the
  highest percentile with at least ten operations beyond it (the maximum
  while there are fewer than 21); the operation count is printed;
* ``work_per_s``: RK4 nodes integrated per second on cli-pinned and
  sweep, barrier samples evaluated per second on catalog;
* ``peak_rss_mb``: peak resident memory of the process.

Failed operations over attempted ones (``failed_frac``) is printed and
carried by ``attempted``/``failed``; it is no JSON metric because it is
0 when the program is right.

With ``--trace 1`` half the time runs untraced and half traced (at
least one pass each), and the metrics are the per-layer ones of
``tracer.Tracer.layer_metrics`` (counts per pass, ``.s`` metrics per
call, times unscaled), the computed barrier traffic and
``tracing_overhead`` (traced over untraced pass time, minus 1).

Computed traffic of the barrier kernels: the op counts per sample come
from the closed forms (``tracer.KERNEL_OPS``) and the bytes are the
compulsory 16 per sample, so both are computed, not measured.  A
bandwidth measurement needs arrays of at least four times the LLC; on
the reference box (300 MiB LLC, 8 GB of RAM) that is more than a run
can hold, so no bandwidth is measured and ops/byte is reported without
a bandwidth or roofline ratio.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
SETUP_PROBES = 15

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_s_p50": "s", "op_s_tail": "s",
    "work_per_s": "1/s", "peak_rss_mb": "MB",
}
WORK_NAME = {"cli-pinned": "steps_per_s", "sweep": "steps_per_s",
             "catalog": "samples_per_s"}

_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from fblf_ilc import cli, plant
from fblf_ilc.controller import ControllerConfig, Mode
for path in sys.argv[2:]:
    rc = cli.parse_config(path)
    ControllerConfig(mode=Mode(rc.mode), bound=rc.bound, gamma=rc.gamma,
                     theta_bar=rc.theta_bar, eps=rc.eps)
    plant.BUILTIN_MODELS[rc.model]()
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                llc = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "llc": llc}


class Calibration:
    """The machine's speed, sampled between operations.

    Other tenants share this machine's cores, and its speed drifts by up
    to a half over seconds to minutes, often for a whole run: in ten raw
    runs of sweep, IQR/median of wall_s was 0.31.  So a fixed loop is
    timed in the gaps between timed operations, never inside one, and an
    operation's time is scaled by ``REF_S[kind]`` over the median loop
    time in the gaps just before and after it.  Contention slows unlike
    work unlike, so the loop resembles the workload: arithmetic on
    one-element numpy arrays as in an RK4 node step ("scalar"), or
    elementwise kernels on a 64 Ki-element array as in the barrier catalog
    ("vector").  Measured on the reference box over 3 s windows, the
    scalar loop cut the spread of an engine.run call's time from 0.39 to
    0.07, and the vector loop that of a 2^20-sample blf_eval from 0.12 to
    0.05; neither loop tracks the other kind of work.  Raw times are
    printed too.
    """

    # the loops' typical times on the reference box
    REF_S = {"scalar": 1.5e-3, "vector": 0.8e-3}
    SHARE = 0.03  # loop time in a gap, as a share of the operation before

    def __init__(self, kind: str):
        self.kind = kind
        self.samples = []
        self._v = np.linspace(0.0, 1.0, 1 << 16)

    def _loop(self):
        if self.kind == "vector":
            for _ in range(4):
                np.sqrt(self._v / (1.5 - self._v))
            return
        x, y = np.zeros(1), np.ones(1)
        for _ in range(600):
            x = x * 0.5 + y
            y = np.maximum(x, -1.0)

    def sample(self, seconds: float = 0.0, loops: int = 1):
        """Time the loop ``loops`` times and until ``seconds`` have gone by."""
        end = time.perf_counter() + seconds
        for _ in range(loops):
            t0 = time.perf_counter()
            self._loop()
            self.samples.append(time.perf_counter() - t0)
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            self._loop()
            self.samples.append(time.perf_counter() - t0)

    def factor(self, since: int = 0) -> float:
        """Scale for times measured among the samples from ``since`` on."""
        return self.REF_S[self.kind] / statistics.median(self.samples[since:])


def measure_setup() -> float:
    """Median time, in fresh interpreters, to import fblf_ilc and build the
    pinned configs' controller configs and models through the public API.
    The config files are written beforehand, outside the timing.  It is
    not scaled: the calibration loops do not track import work, and on
    the reference box scaling widened the spread of ten runs from 0.19
    to 0.25."""
    import workloads
    paths = workloads.write_pinned_configs("pinned", WORKDIR / "probe")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC),
             *(str(path) for path in paths.values())],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout))
    print("setup probes (s): " + ", ".join(f"{t:.4f}" for t in times))
    return statistics.median(times)


class Runner:
    """Runs passes of operations, timing and checking each one."""

    def __init__(self, ops, calibration: str = "scalar"):
        self.ops = ops
        self.cal = Calibration(calibration)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, tracer=None):
        """({operation index: (scaled time, raw time)}, work) of one pass;
        failed operations have no time.  An operation's scale comes from
        the calibration loops in the gaps just before and after it."""
        times, work = {}, 0
        gap = len(self.cal.samples)
        self.cal.sample(loops=2)
        for i, op in enumerate(self.ops):
            if op.reset is not None:
                op.reset()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a crash is a failed operation
                out = None
                self.problems.append(f"{op.key}: raised\n"
                                     + traceback.format_exc(limit=3))
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            before, gap = gap, len(self.cal.samples)
            self.cal.sample(Calibration.SHARE * dt, loops=2)
            self.attempted += 1
            if out is None:
                self.failed += 1
                continue
            w, problems = op.check(out)
            self.failed += bool(problems)
            self.problems += problems
            times[i] = (dt * self.cal.factor(before), dt)
            work += w
        return times, work

    def repeat(self, seconds, tracer=None):
        """Whole passes while another one fits in ``seconds`` (at least
        one): (passes, each operation's median time over the passes, the
        same unscaled, work of a pass)."""
        times, work, passes = {}, 0, 0
        start, shortest = time.perf_counter(), float("inf")
        while True:
            t0 = time.perf_counter()
            one, work = self.one_pass(tracer)
            passes += 1
            for i, pair in one.items():
                times.setdefault(i, []).append(pair)
            now = time.perf_counter()
            shortest = min(shortest, now - t0)
            if now - start + shortest > seconds:
                break
        scaled = [statistics.median(t for t, _ in v) for v in times.values()]
        raw = [statistics.median(r for _, r in v) for v in times.values()]
        return passes, scaled, raw, work


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the maximum while there are fewer than 21 samples."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/run.py",
                                description="fblf-ilc benchmark")
    p.add_argument("--workload", required=True,
                   choices=("cli-pinned", "sweep", "catalog"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long smoke run for the tests")
    args = p.parse_args(argv)
    if not (SRC / "fblf_ilc" / "__init__.py").is_file():
        print(f"error: no fblf_ilc sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from tracer import LAYER_UNITS, Tracer

    print("env: " + json.dumps(environment()), flush=True)
    WORKDIR.mkdir(exist_ok=True)
    if not args.trace:
        setup_s = measure_setup()
    kind = workloads.CALIBRATION[args.workload]
    warm_size = "tiny" if args.size == "tiny" else workloads.WARM_SIZE[
        args.workload]
    warm = Runner(workloads.build(args.workload, args.seed, warm_size,
                                  WORKDIR / "warm"), kind)
    warm.one_pass()
    runner = Runner(workloads.build(args.workload, args.seed, args.size,
                                    WORKDIR / "run"), kind)

    if args.trace:
        untraced = sum(runner.repeat(args.seconds / 2)[1])
        with Tracer() as tracer:
            tracer.calibrate()
            passes, op_times, _, _ = runner.repeat(args.seconds / 2, tracer)
        metrics = tracer.layer_metrics(passes)
        metrics["tracing_overhead"] = sum(op_times) / untraced - 1.0
        units = LAYER_UNITS
        print("spans (all traced passes):")
        print("\n".join(tracer.span_table()))
    else:
        passes, op_times, op_raw, work = runner.repeat(args.seconds)
        wall_s = sum(op_times)
        tail_s, tail_pct = tail(op_times)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_s_p50": statistics.median(op_times),
            "op_s_tail": tail_s,
            "work_per_s": work / wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"passes = {passes}, operations = {len(op_times)}; op_s_tail "
              f"is p{tail_pct:.1f} of {len(op_times)} operations; work_per_s is "
              f"{WORK_NAME[args.workload]}")
        print(f"raw (unscaled): wall_s = {sum(op_raw)!r} s; {kind} calibration loop median "
              f"{statistics.median(runner.cal.samples)!r} s over "
              f"{len(runner.cal.samples)} loops (reference "
              f"{Calibration.REF_S[kind]} s)")

    attempted = runner.attempted + warm.attempted
    failed = runner.failed + warm.failed
    for problem in (warm.problems + runner.problems)[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {failed / attempted!r} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
