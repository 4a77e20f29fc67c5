"""The golden cases of tests/golden_cases.py: each run's trace and
summary CSVs hash to the recorded digests, and so do simulate's."""

import hashlib

import pytest

import golden_cases
from fblf_ilc.cli import main
from fblf_ilc.engine import run, write_summary_csv, write_trace_csv
from golden_cases import GOLDEN, MORE_GOLDEN


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(tmp_path, case):
    result = run(golden_cases.model(case), golden_cases.config(case),
                 K=golden_cases.K, N=case[4], theorem=case[1])
    write_trace_csv(result, tmp_path / "trace.csv")
    write_summary_csv(result, tmp_path / "summary.csv")
    return digest(tmp_path / "trace.csv"), digest(tmp_path / "summary.csv")


@pytest.mark.parametrize("model, theorem, bound", sorted(GOLDEN))
def test_csv_digests(tmp_path, model, theorem, bound):
    mode = "disc" if theorem == 1 else "cont"
    assert (run_digests(tmp_path, (model, theorem, mode, bound, 200))
            == GOLDEN[model, theorem, bound])


@pytest.mark.parametrize("model, theorem, mode, bound, N", sorted(MORE_GOLDEN))
def test_other_mode_and_breach_digests(tmp_path, model, theorem, mode, bound,
                                       N):
    case = (model, theorem, mode, bound, N)
    assert run_digests(tmp_path, case) == MORE_GOLDEN[case]


# simulate on scalar-I at b_V = 0.5, one config per (mode, theorem) pair,
# gives the digests of the same run above; with mode absent, the smoothed
# Theorem 2 runs cont and Theorem 1 disc
@pytest.mark.parametrize("fields, digests", [
    pytest.param("theorem = 1", GOLDEN["I", 1, 0.5], id="1"),
    pytest.param("theorem = 2\neps = 0.01", GOLDEN["I", 2, 0.5], id="2"),
    pytest.param("theorem = 2\nmode = disc",
                 MORE_GOLDEN["I", 2, "disc", 0.5, 200], id="2-disc"),
    pytest.param("theorem = 1\nmode = cont\neps = 0.01",
                 MORE_GOLDEN["I", 1, "cont", 0.5, 200], id="1-cont"),
])
def test_simulate_digests(tmp_path, fields, digests):
    path = tmp_path / "run.cfg"
    path.write_text("model = scalar-I\nb_V = 0.5\nK = 3\nN = 200\n"
                    f"{fields}\n")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    assert (digest(out / "trace.csv"), digest(out / "summary.csv")) == digests
