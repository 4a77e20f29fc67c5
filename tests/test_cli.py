import textwrap
from pathlib import Path

import pytest

from fblf_ilc import engine, svgplot
from fblf_ilc.cli import main, parse_config, ConfigError


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


GOOD_CONFIG = """\
    # scalar nonlinear plant, theorem 1
    model = scalar-I
    theorem = 1
    mode = disc
    b_V = 0.5
    gamma = 2.0
    theta_bar = 1.0
    K = 4
    N = 100
"""


class TestConfigParsing:
    def test_good_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
        assert cfg.model == "scalar-I"
        assert cfg.K == 4
        assert cfg.bound == 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_unknown_field(self, tmp_path):
        path = write_config(tmp_path, "model = scalar-I\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    def test_nonpositive_bound_names_field(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("b_V = 0.5",
                                                          "b_V = -1"))
        with pytest.raises(ConfigError, match="b_V"):
            parse_config(path)

    def test_cont_requires_eps(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("mode = disc",
                                                          "mode = cont"))
        with pytest.raises(ConfigError, match="eps"):
            parse_config(path)

    def test_theorem2_requires_cont(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("theorem = 1",
                                                          "theorem = 2"))
        with pytest.raises(ConfigError, match="mode"):
            parse_config(path)

    def test_theorem2_disc_override(self, tmp_path):
        body = GOOD_CONFIG.replace("theorem = 1", "theorem = 2")
        body += "allow_disc_thm2 = true\n"
        cfg = parse_config(write_config(tmp_path, body))
        assert cfg.theorem == 2

    def test_wrong_bound_key_for_model(self, tmp_path):
        body = GOOD_CONFIG.replace("model = scalar-I", "model = scalar-II")
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match="b_V"):
            parse_config(path)


class TestSimulate:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_bound_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG.replace("b_V = 0.5",
                                                          "b_V = 0"))
        assert main(["simulate", str(path)]) == 1
        assert "b_V" in capsys.readouterr().err

    def test_summary_row_count(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4
        assert (out / "trace.csv").is_file()

    def test_breach_exits_2(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("b_V = 0.5",
                                                          "b_V = 1e-9"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2

    def test_svg_outputs(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out), "--svg"]) == 0
        for name in ("convergence.svg", "constraint.svg"):
            content = (out / name).read_text()
            assert content.startswith("<svg")
            assert "polyline" in content

    def test_determinism(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", str(path), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_jobs_runs_all(self, tmp_path):
        p1 = write_config(tmp_path, GOOD_CONFIG, "a.cfg")
        p2 = write_config(tmp_path, GOOD_CONFIG.replace("K = 4", "K = 2"),
                          "b.cfg")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        body1 = p1.read_text() + f"out = {out1}\n"
        p1.write_text(body1)
        body2 = p2.read_text() + f"out = {out2}\n"
        p2.write_text(body2)
        assert main(["simulate", str(p1), str(p2)]) == 0
        assert (out1 / "summary.csv").is_file()
        assert (out2 / "summary.csv").is_file()

    def test_shared_output_dir_exits_1(self, tmp_path, capsys):
        p1 = write_config(tmp_path, GOOD_CONFIG, "a.cfg")
        p2 = write_config(tmp_path, GOOD_CONFIG.replace("K = 4", "K = 2"),
                          "b.cfg")
        out = tmp_path / "out"
        assert main(["simulate", str(p1), str(p2), "--out", str(out)]) == 1
        assert "both write to" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["b_V", "gamma", "T"])
    def test_nonfinite_value_exits_1(self, tmp_path, capsys, field):
        path = write_config(tmp_path, GOOD_CONFIG + f"{field} = inf\n")
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert f"'{field}' must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_single_step_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG.replace("N = 100", "N = 1"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert "field 'N' must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["b_V", "T"])
    def test_overflow_exits_4(self, tmp_path, capsys, field):
        # T = 1e300 overflows inside numpy; pytest turns a RuntimeWarning
        # into an error, so this also checks that none escapes
        path = write_config(tmp_path, GOOD_CONFIG + f"{field} = 1e300\n")
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, bound, cap", [
        ("scalar-I", "b_V = 0.5", 0.5),
        ("scalar-II", "b_e = 2", 4.0),
    ], ids=["scalar-I", "scalar-II"])
    def test_constraint_plot_cap(self, tmp_path, monkeypatch, model, bound,
                                 cap):
        hlines = {}

        def record(path, *args, hline=None, **kwargs):
            hlines[Path(path).name] = hline

        monkeypatch.setattr(svgplot, "line_plot", record)
        body = (GOOD_CONFIG.replace("model = scalar-I", f"model = {model}")
                .replace("b_V = 0.5", bound))
        path = write_config(tmp_path, body)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o"),
                     "--svg"]) == 0
        assert hlines == {"convergence.svg": None, "constraint.svg": cap}

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_is_a_file_exits_1_before_running(self, tmp_path, capsys,
                                                  monkeypatch, out):
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated with an unusable output path")

        monkeypatch.setattr(engine, "run", must_not_run)
        (tmp_path / "file").write_text("keep")
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["simulate", str(path), "--out", str(tmp_path / out)]) == 1
        assert "is not a directory" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "keep"

    def test_write_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("permission denied")

        monkeypatch.setattr(engine, "write_trace_csv", refuse)
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "cannot write output" in err
        assert "Traceback" not in err

    def test_nonfinite_state_exits_4(self, tmp_path, capsys, monkeypatch):
        def blow_up(*args, **kwargs):
            raise engine.NonFiniteStateError("non-finite state at t=1.0")

        monkeypatch.setattr(engine, "run", blow_up)
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "non-finite state" in capsys.readouterr().err


class TestCompareBlf:
    def test_exit_zero_at_one(self, tmp_path, capsys):
        assert main(["compare-blf", "1.0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "blf_report.csv").is_file()
        assert "holds" in capsys.readouterr().out

    def test_rejects_nonpositive(self, tmp_path, capsys):
        assert main(["compare-blf", "-1.0", "--out", str(tmp_path)]) == 1

    def test_rejects_infinite(self, tmp_path, capsys):
        assert main(["compare-blf", "inf", "--out", str(tmp_path)]) == 1
        assert "positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "blf_report.csv").exists()

    def test_out_is_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "file").write_text("keep")
        assert main(["compare-blf", "1.0", "--out",
                     str(tmp_path / "file")]) == 1
        assert "error: cannot write output" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "keep"

    @pytest.mark.parametrize("bound", ["1e300", "1e103"])
    def test_overflow_exits_4(self, tmp_path, capsys, bound):
        assert main(["compare-blf", bound, "--out", str(tmp_path)]) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestCheckLemmas:
    def test_geometric_exit_zero(self, tmp_path):
        csv_path = tmp_path / "seq.csv"
        rows = ["r,s"] + [f"{2.0 ** -k},{2.0 ** -k}" for k in range(12)]
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["check-lemmas", str(csv_path)]) == 0

    def test_increasing_r_exit_3(self, tmp_path):
        csv_path = tmp_path / "seq.csv"
        rows = ["r,s"] + [f"{k + 1.0},1.0" for k in range(10)]
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["check-lemmas", str(csv_path)]) == 3

    def test_with_residual_column(self, tmp_path):
        csv_path = tmp_path / "seq.csv"
        rows = ["r,s,d"] + ["0.3,0.3,0.3"] * 10
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["check-lemmas", str(csv_path)]) == 0

    def test_malformed_exit_1(self, tmp_path, capsys):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text("a,b\n1,2\n")
        assert main(["check-lemmas", str(csv_path)]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["check-lemmas", str(tmp_path / "absent.csv")]) == 1
