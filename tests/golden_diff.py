"""Move report: the golden cases of tests/golden_cases.py here and in OTHER.

    python tests/golden_diff.py OTHER

OTHER is another checkout's root.  Each checkout's package runs every
golden case (K = 3) in its own subprocess, with its src first on
sys.path, and prints each iteration's e, u, V, theta_hat and L as float
reprs, its breach node and check_delta_L's verdicts, as JSON.  For each
case whose output differs, the report gives the fields that moved with
the largest difference of each in ulps (the iterations' fields, a
CHAOTIC case's theta* restart rows, and the delta-L values and their
requirements), the breach nodes on each side, the delta-L verdicts that
changed, and each side's largest distance from tests/oracle.py's exact
run (e, V and theta_hat, relative to each trace's max, over the rows
both computed).  The exact run reads this checkout's float inputs.  The CHAOTIC cases amplify rounding to O(1)
over a run, so each side is judged there by the step check: every step
restarted from that side's own e and theta*.

Exit 0 when no case moved, 1 when one did, 2 when OTHER has no
src/fblf_ilc or its run fails.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import golden_cases
import oracle
from golden_cases import CASES, CHAOTIC, K

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("e", "u", "V", "theta_hat", "L")


def emit(src: str) -> None:
    """Print every golden case's run by the package under src as JSON."""
    sys.path.insert(0, src)
    import fblf_ilc
    if Path(src).resolve() not in Path(fblf_ilc.__file__).resolve().parents:
        sys.exit(f"fblf_ilc was imported from {fblf_ilc.__file__}")
    from fblf_ilc import check_delta_L, run

    def reprs(a):
        return [repr(x) for x in a.ravel().tolist()]

    out = []
    for case in CASES:
        N = case[4]

        def run_k(k):
            return run(golden_cases.model(case), golden_cases.config(case),
                       K=k, N=N, theorem=case[1])
        result = run_k(K)
        iterations = [dict({key: reprs(getattr(tr, key)) for key in FIELDS},
                           breach=tr.breach_node) for tr in result.traces]
        if case in CHAOTIC:  # theta* before each iteration, for restarts
            for k, it in enumerate(iterations):
                it["theta_star"] = (reprs(run_k(k).memory.theta_star) if k
                                    else ["0.0"] * (N + 1))
        verdicts = [[v.k, repr(v.delta_L), repr(v.required), v.passed]
                    for v in check_delta_L(result)]
        out.append({"case": case, "iterations": iterations,
                    "delta_L": verdicts})
    json.dump(out, sys.stdout)


def runs(roots) -> list:
    """Each root's emitted cases, its children running side by side; a
    child that fails raises RuntimeError with its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        children = []
        for n, root in enumerate(roots):
            out, err = Path(tmp) / f"{n}.json", Path(tmp) / f"{n}.err"
            with open(out, "w") as fo, open(err, "w") as fe:
                children.append((root, out, err, subprocess.Popen(
                    [sys.executable, __file__, "--emit",
                     str(Path(root) / "src")], stdout=fo, stderr=fe)))
        codes = [proc.wait() for *_, proc in children]
        for (root, _, err, _), code in zip(children, codes):
            if code:
                raise RuntimeError(f"{root}: exit {code}: {err.read_text()}")
        return [json.loads(out.read_text()) for _, out, _, _ in children]


def ordinals(reprs) -> list[int]:
    """Each float's place in the order of all floats, so that two places
    differ by the ulps between their floats; -0.0 sits just below +0.0."""
    i = np.array([float(x) for x in reprs]).view(np.int64)
    return (i ^ ((i >> 63) & np.int64((1 << 63) - 1))).tolist()


def moved_fields(here, other) -> list[str]:
    """'field N ulps' for each field of two emitted cases that differs:
    FIELDS in any iteration, a CHAOTIC case's theta_star restart rows, and
    check_delta_L's delta_L and required at each k both sides verdict."""
    columns = [(key, [(a, b) for h, o in zip(here["iterations"],
                                             other["iterations"])
                      for a, b in zip(h.get(key, ()), o.get(key, ()))])
               for key in FIELDS + ("theta_star",)]
    hv, ov = ({v[0]: v for v in side["delta_L"]} for side in (here, other))
    columns += [(key, [(hv[k][j], ov[k][j]) for k in hv.keys() & ov.keys()])
                for j, key in ((1, "delta_L"), (2, "required"))]
    lines = []
    for key, pairs in columns:
        pairs = [(a, b) for a, b in pairs if a != b]
        if not pairs:
            continue
        fin = [(a, b) for a, b in pairs if "nan" not in (a, b)]
        nan = len(pairs) - len(fin)
        most = max((abs(a - b) for a, b in zip(*map(ordinals, zip(*fin)))),
                   default=0)
        lines.append(f"{key} {most} ulps"
                     + (f" (+{nan} NaN against a number)" if nan else ""))
    return lines


def changed_verdicts(here, other) -> list[str]:
    def passed(verdicts):
        return {v[0]: "pass" if v[3] else "FAIL" for v in verdicts}
    h, o = passed(here), passed(other)
    return [f"k={k}: {h.get(k, 'none')} -> {o.get(k, 'none')}"
            for k in sorted(h.keys() | o.keys()) if h.get(k) != o.get(k)]


def distance(iterations, exact_rows) -> float:
    """Largest oracle.distance of e, V and theta_hat from the exact rows."""
    return max((oracle.distance([float(x) for x in it[key]], rows[key])
                for it, rows in zip(iterations, exact_rows)
                for key in oracle.FIELDS), default=0.0)


def oracle_line(case, here, other) -> str:
    scheme = golden_cases.exact_scheme(case)
    if case not in CHAOTIC:
        rows = scheme.run(K)
        return (f"oracle distance (whole run): here "
                f"{distance(here, rows):.3g}, other "
                f"{distance(other, rows):.3g}")

    def step(side):
        restart = [([float(x) for x in it["e"]],
                    [float(x) for x in it["theta_star"]]) for it in side]
        return distance(side, scheme.run(K, restart))
    return (f"oracle distance (step check): here {step(here):.3g}, "
            f"other {step(other):.3g}")


def report(here_cases, other_cases) -> int:
    unchanged = 0
    for h, o in zip(here_cases, other_cases):
        if h == o:
            unchanged += 1
            continue
        case = tuple(h["case"])
        model, theorem, mode, bound, N = case
        hi, oi = h["iterations"], o["iterations"]
        print(f"model {model}, theorem {theorem}, {mode}, bound {bound!r},"
              f" N = {N}: moved")
        print("  fields: " + (", ".join(moved_fields(h, o)) or "none"))
        print(f"  breach nodes: here {[it['breach'] for it in hi]}, "
              f"other {[it['breach'] for it in oi]}")
        verdicts = changed_verdicts(h["delta_L"], o["delta_L"])
        print("  delta-L verdicts changed: " + ("; ".join(verdicts)
                                                or "none"))
        print("  " + oracle_line(case, hi, oi))
    total = len(here_cases)
    print(f"{unchanged} of {total} cases unchanged")
    return 0 if unchanged == total else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", help="root of another checkout")
    p.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.emit:
        emit(args.other)
        return 0
    if not (Path(args.other) / "src" / "fblf_ilc").is_dir():
        print(f"error: {args.other} has no src/fblf_ilc", file=sys.stderr)
        return 2
    try:
        here, other = runs([ROOT, args.other])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report(here, other)


if __name__ == "__main__":
    sys.exit(main())
