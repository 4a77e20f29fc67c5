"""tests/golden_diff.py, the move report: no case moves against this
checkout, and RK4's k3 weight 2.0 -> 2.0000001 moves every case, with e,
V and theta_hat among the fields and the mutant farther from the exact
run than this checkout."""

import re
import shutil
from pathlib import Path

import golden_diff
import test_oracle

ROOT = Path(__file__).resolve().parent.parent


def test_chaotic_cases_are_test_oracles():
    assert golden_diff.CHAOTIC == test_oracle.CHAOTIC


def test_this_checkout_unchanged(capsys):
    assert golden_diff.main([str(ROOT)]) == 0
    assert capsys.readouterr().out == "18 of 18 cases unchanged\n"


def test_rk4_weight_mutant_moves(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "src" / "fblf_ilc" / "engine.py"
    text = engine.read_text()
    assert text.count("2.0 * k3") == 1
    engine.write_text(text.replace("2.0 * k3", "2.0000001 * k3"))
    assert golden_diff.main([str(tmp_path)]) == 1
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


def test_no_package_exit_2(tmp_path, capsys):
    assert golden_diff.main([str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path} has no src/fblf_ilc\n"
