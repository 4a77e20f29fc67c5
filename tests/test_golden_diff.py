"""tests/golden_diff.py, the move report: no case moves against this
checkout, and RK4's k3 weight 2.0 -> 2.0000001 moves every case, with e,
V and theta_hat among the fields and the mutant farther from the exact
run than this checkout, and V's bound scaled by 0.9 moves the node where
a coarse-grid run breaches.  A case whose theta* restart rows or delta-L
values alone moved names them among its fields."""

import math
import re
import shutil
from pathlib import Path

import golden_diff

ROOT = Path(__file__).resolve().parent.parent


def mutant(tmp_path, name, old, new) -> str:
    """A copy of this checkout's src whose fblf_ilc/name has its one old
    replaced by new."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "fblf_ilc" / name
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return str(tmp_path)


def test_this_checkout_unchanged(capsys):
    assert golden_diff.main([str(ROOT)]) == 0
    assert capsys.readouterr().out == "18 of 18 cases unchanged\n"


def test_rk4_weight_mutant_moves(tmp_path, capsys):
    other = mutant(tmp_path, "engine.py", "2.0 * k3", "2.0000001 * k3")
    assert golden_diff.main([other]) == 1
    out = capsys.readouterr().out
    assert out.endswith("\n0 of 18 cases unchanged\n")
    fields = re.findall(r"^  fields: (.*)$", out, re.M)
    assert len(fields) == 18
    for line in fields:
        assert {"e", "V", "theta_hat"} <= {f.split()[0]
                                           for f in line.split(", ")}
    distances = re.findall(r"oracle distance \(.+\): here (\S+), other (\S+)$",
                           out, re.M)
    assert len(distances) == 18
    assert all(float(here) < float(other) for here, other in distances)


def test_bound_mutant_moves_breach_node(tmp_path, capsys):
    other = mutant(tmp_path, "plant.py", "bound ** model.bound_power",
                   "0.9 * bound ** model.bound_power")
    assert golden_diff.main([other]) == 1
    out = capsys.readouterr().out
    case = out.split("model I, theorem 1, disc, bound 0.05, N = 10: moved\n")
    assert len(case) == 2
    assert case[1].splitlines()[1:3] == [
        "  breach nodes: here [None, 5, 4], other [None, 6, 4]",
        "  delta-L verdicts changed: none"]


def emitted(theta_star=0.5, delta_L=-0.25, required=-0.125):
    """An emitted CHAOTIC-style case of two iterations on a one-node grid
    whose e, u, V, theta_hat and L are all 1.0."""
    rows = {key: ["1.0"] for key in golden_diff.FIELDS}
    return {"case": ["I", 2, "cont", 0.01985, 1],
            "iterations": [dict(rows, breach=None, theta_star=["0.0"]),
                           dict(rows, breach=None,
                                theta_star=[repr(theta_star)])],
            "delta_L": [[1, repr(delta_L), repr(required), True]]}


def ulps_up(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


def test_restart_rows_and_delta_L_values_are_fields():
    here = emitted()
    assert golden_diff.moved_fields(here, emitted()) == []
    moved = emitted(theta_star=ulps_up(0.5, 2))
    assert golden_diff.moved_fields(here, moved) == ["theta_star 2 ulps"]
    moved = emitted(delta_L=ulps_up(-0.25, 1), required=ulps_up(-0.125, 3))
    assert golden_diff.moved_fields(here, moved) == [
        "delta_L 1 ulps", "required 3 ulps"]
    assert golden_diff.changed_verdicts(here["delta_L"],
                                        moved["delta_L"]) == []


def test_no_package_exit_2(tmp_path, capsys):
    assert golden_diff.main([str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path} has no src/fblf_ilc\n"
