import contextlib
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblf_ilc import analysis, cli, engine, plant, svgplot
from fblf_ilc.cli import main, parse_config, ConfigError
from fblf_ilc.controller import ControllerConfig, Mode
from fblf_ilc.learner import ParamMemory


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


def good_config_with(field, raw):
    """GOOD_CONFIG with field set to raw: in place of its line if it has
    one, else on a line of its own."""
    for line in GOOD_CONFIG.splitlines():
        if line.split("=")[0].strip() == field:
            return GOOD_CONFIG.replace(line, f"    {field} = {raw}")
    return GOOD_CONFIG + f"{field} = {raw}\n"


class TestConfigParsing:
    def test_good_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
        assert cfg.model == "scalar-I"
        assert cfg.K == 4
        assert cfg.bound == 0.5
        # the reads and builds of the benchmark's setup probe (setup_s)
        for model, key, value in (("scalar-I", "b_V", 0.5),
                                  ("scalar-II", "b_e", 1.0)):
            body = (GOOD_CONFIG.replace("model = scalar-I", f"model = {model}")
                    .replace("b_V = 0.5", f"{key} = {value}")
                    .replace("mode = disc", "mode = cont\neps = 0.01"))
            rc = parse_config(write_config(tmp_path, body, f"{model}.cfg"))
            ctl = ControllerConfig(mode=Mode(rc.mode), bound=rc.bound,
                                   gamma=rc.gamma, theta_bar=rc.theta_bar,
                                   eps=rc.eps)
            assert ctl == ControllerConfig(mode=Mode.CONT, bound=value,
                                           gamma=2.0, theta_bar=1.0, eps=0.01)
            assert plant.BUILTIN_MODELS[rc.model]().bound_key == key

    def test_engine_runs_the_parsed_config(self, tmp_path):
        assert issubclass(cli.RunConfig, ControllerConfig)
        cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
        assert cli._run_one(cfg).config is cfg

    @pytest.mark.parametrize("field", ["gamma", "theta_bar", "eps"])
    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_controller_field_not_positive_names_the_file(self, tmp_path,
                                                          capsys, field, raw):
        # a good config first: the error names the bad one, and neither runs
        good = write_config(tmp_path, GOOD_CONFIG + f"out = {tmp_path / 'o1'}\n",
                            "good.cfg")
        bad = write_config(tmp_path, good_config_with(field, raw)
                           + f"out = {tmp_path / 'o2'}\n", "bad.cfg")
        assert main(["simulate", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {bad}: {field} must be positive and finite, "
                       f"got {float(raw)}\n")
        assert not (tmp_path / "o1").exists()
        assert not (tmp_path / "o2").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # the comment line dropped, so that the mark precedes "model"
        body = textwrap.dedent(GOOD_CONFIG).split("\n", 1)[1]
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert parse_config(path).model == "scalar-I"

    def test_unknown_field(self, tmp_path):
        for line in ("bogus = 1", "allow_disc_thm2 = true", "svg = true"):
            key = line.split(" ")[0]
            path = write_config(tmp_path, f"model = scalar-I\n{line}\n")
            with pytest.raises(ConfigError, match=f"unknown field '{key}'"):
                parse_config(path)

    @pytest.mark.parametrize("key, again", [("K", "K = 3"),
                                            ("b_V", "b_V=0.25"),
                                            ("model", " model = scalar-II")])
    def test_key_set_twice_exits_1(self, tmp_path, capsys, key, again):
        # GOOD_CONFIG sets model, b_V and K on lines 2, 5 and 8
        first = {"model": 2, "b_V": 5, "K": 8}[key]
        path = write_config(tmp_path, f"{GOOD_CONFIG}\n# more\n{again}\n")
        with pytest.raises(ConfigError, match=rf"field '{key}' is set twice, "
                                              rf"on lines {first} and 12$"):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_nonpositive_bound_names_field(self, tmp_path, capsys, raw):
        path = write_config(tmp_path, good_config_with("b_V", raw))
        message = f"{path}: field 'b_V' must be positive, got {float(raw)}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(path)
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cont_requires_eps(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("mode = disc",
                                                          "mode = cont"))
        with pytest.raises(ConfigError, match="eps"):
            parse_config(path)

    def test_theorem2_requires_cont(self, tmp_path):
        # with no mode set, the smoothed theorem 2 runs cont, so needs eps
        body = (GOOD_CONFIG.replace("theorem = 1", "theorem = 2")
                .replace("    mode = disc\n", ""))
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "
                                              r"continuous mode requires "
                                              r"eps > 0$"):
            parse_config(path)
        cfg = parse_config(write_config(tmp_path, body + "eps = 0.01\n"))
        assert (cfg.theorem, cfg.mode, cfg.eps) == (2, Mode.CONT, 0.01)
        # and theorem 1 runs disc
        body = GOOD_CONFIG.replace("    mode = disc\n", "")
        assert parse_config(write_config(tmp_path, body)).mode is Mode.DISC

    def test_theorem2_disc_override(self, tmp_path):
        body = GOOD_CONFIG.replace("theorem = 1", "theorem = 2")
        cfg = parse_config(write_config(tmp_path, body))
        assert (cfg.theorem, cfg.mode, cfg.eps) == (2, Mode.DISC, None)

    def test_bad_mode(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("mode = disc",
                                                          "mode = smooth"))
        with pytest.raises(ConfigError, match="invalid value for field "
                                              "'mode': 'smooth'"):
            parse_config(path)

    def test_line_without_equals(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG + "K 4\n")
        with pytest.raises(ConfigError,
                           match=r"run\.cfg:10: expected 'key = value'$"):
            parse_config(path)

    @pytest.mark.parametrize("body", [
        pytest.param(GOOD_CONFIG.replace("model = scalar-I", "model = nope"),
                     id="unknown"),
        pytest.param(GOOD_CONFIG.replace("    model = scalar-I\n", ""),
                     id="missing")])
    def test_bad_or_missing_model(self, tmp_path, body):
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "
                                              r"field 'model' must be one "
                                              r"of \['scalar-I', 'scalar-II'\]"):
            parse_config(path)

    def test_missing_bound_key(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("    b_V = 0.5\n",
                                                          ""))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "
                                              r"field 'b_V' is required for "
                                              r"model scalar-I$"):
            parse_config(path)

    def test_wrong_bound_key_for_model(self, tmp_path):
        body = GOOD_CONFIG.replace("model = scalar-I", "model = scalar-II")
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match="b_V"):
            parse_config(path)


class BoundW(plant.ErrorModelI):
    bound_key = "b_W"


class OneTheorem(plant.ErrorModelI):
    theorems = {1: plant.ErrorModelI.theorems[1]}


class SmoothedThree(plant.ErrorModelI):
    theorems = {1: plant.ErrorModelI.theorems[1],
                3: plant.ErrorModelI.theorems[2]}


def built_as(cls):
    """A factory of the scalar-I built-in, as an instance of cls."""
    model = plant.scalar_model_i()
    return lambda: cls(**{f.name: getattr(model, f.name)
                          for f in dataclasses.fields(model)})


class TestModelTypeFields:
    """The bound field and the theorem table come from the model type."""

    @pytest.fixture(autouse=True)
    def registered(self, monkeypatch):
        monkeypatch.setitem(plant.BUILTIN_MODELS, "bound-W", built_as(BoundW))
        monkeypatch.setitem(plant.BUILTIN_MODELS, "one-theorem",
                            built_as(OneTheorem))

    def test_own_bound_field_runs(self, tmp_path):
        body = (GOOD_CONFIG.replace("model = scalar-I", "model = bound-W")
                .replace("b_V = 0.5", "b_W = 0.5"))
        path = write_config(tmp_path, body)
        assert parse_config(path).bound == 0.5
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("model, extra", [("bound-W", "b_V"),
                                              ("scalar-I", "b_W")])
    def test_other_types_bound_field_rejected(self, tmp_path, model, extra):
        body = (GOOD_CONFIG.replace("model = scalar-I", f"model = {model}")
                .replace("b_V = 0.5", "b_W = 0.5\nb_V = 0.5"))
        with pytest.raises(ConfigError,
                           match=f"'{extra}' does not apply to model {model}"):
            parse_config(write_config(tmp_path, body))

    def test_own_bound_field_is_positive(self, tmp_path):
        body = (GOOD_CONFIG.replace("model = scalar-I", "model = bound-W")
                .replace("b_V = 0.5", "b_W = 0"))
        with pytest.raises(ConfigError, match="'b_W' must be positive"):
            parse_config(write_config(tmp_path, body))

    def test_theorem_outside_the_table_exits_1(self, tmp_path, capsys):
        body = (GOOD_CONFIG.replace("model = scalar-I", "model = one-theorem")
                .replace("theorem = 1", "theorem = 2")
                .replace("mode = disc", "mode = cont\neps = 0.01"))
        out = tmp_path / "o"
        path = write_config(tmp_path, body)
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: theorem must be one of [1], got 2\n"
        assert "Traceback" not in err
        assert not out.exists()


class TestSmoothedTheoremNumbered3:
    """Which theorem is smoothed comes from the model type's table, not
    from its number: the mode rule and the eps*T allowance follow it."""
    EPS = 0.01
    CONT = ControllerConfig(mode=Mode.CONT, bound=0.5, gamma=2.0,
                            theta_bar=1.0, eps=EPS)

    @pytest.fixture(autouse=True)
    def registered(self, monkeypatch):
        monkeypatch.setitem(plant.BUILTIN_MODELS, "smoothed-3",
                            built_as(SmoothedThree))

    def config(self, tmp_path, theorem, extra="", mode="disc"):
        body = (GOOD_CONFIG.replace("model = scalar-I", "model = smoothed-3")
                .replace("theorem = 1", f"theorem = {theorem}")
                .replace("mode = disc", f"mode = {mode}") + extra)
        return write_config(tmp_path, body)

    def test_mode_rule(self, tmp_path):
        # GOOD_CONFIG sets mode = disc, and a mode that is set wins
        cfg = parse_config(self.config(tmp_path, 3))
        assert (cfg.theorem, cfg.mode) == (3, Mode.DISC)
        unset = GOOD_CONFIG.replace("    mode = disc\n", "")
        for theorem, mode in ((1, Mode.DISC), (3, Mode.CONT)):
            body = (unset.replace("model = scalar-I", "model = smoothed-3")
                    .replace("theorem = 1", f"theorem = {theorem}"))
            cfg = parse_config(write_config(tmp_path, body + "eps = 0.01\n"))
            assert (cfg.theorem, cfg.mode) == (theorem, mode)

    def test_theorem_2_rejected(self, tmp_path, monkeypatch):
        path = self.config(tmp_path, 2, "eps = 0.01\n", "cont")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "
                                              r"theorem must be one of "
                                              r"\[1, 3\], got 2$"):
            parse_config(path)
        # engine.run's one lookup rejects it before building a memory
        memories = []

        def recorded(*args, **kwargs):
            memories.append(ParamMemory(*args, **kwargs))
            return memories[-1]

        monkeypatch.setattr(engine, "ParamMemory", recorded)
        model = built_as(SmoothedThree)()
        with pytest.raises(ValueError, match=r"must be one of \[1, 3\]"):
            engine.run(model, self.CONT, K=2, N=10, theorem=2)
        assert memories == []
        assert engine.run(model, self.CONT, K=2, N=10,
                          theorem=3).scheme.smoothed

    def test_delta_L_allowance(self):
        result = engine.run(built_as(SmoothedThree)(), self.CONT, K=4, N=100,
                            theorem=3)
        verdicts = engine.check_delta_L(result)
        assert len(verdicts) == 3
        for v in verdicts:
            prev_V = float(result.traces[v.k - 1].V[-1])
            assert v.required == -prev_V + self.EPS * result.grid.T


class TestReadmeFieldTable:
    """README's simulate table lists the keys parse_config accepts, with
    the parser's defaults."""

    @staticmethod
    def rows():
        text = (Path(__file__).parents[1] / "README.md").read_text()
        section = text.split("### `simulate`", 1)[1].split("\n#", 1)[0]
        cells = [line.split("|")[1:4] for line in section.splitlines()
                 if line.startswith("| `")]
        return {key.strip().strip("`"): default.strip().strip("`").lower()
                for key, _, default in cells}

    def test_keys_and_defaults(self):
        bound_keys = {f().bound_key for f in plant.BUILTIN_MODELS.values()}
        rows = self.rows()
        assert set(rows) == set(cli._FIELDS) | bound_keys
        for key, listed in rows.items():
            _, default = cli._FIELDS.get(key, (float, None))
            want = "—" if default is None else str(default).lower()
            assert listed == want, key


class TestSimulate:
    def test_directory_config_is_not_a_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config path is not a file: {tmp_path}\n")

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        # a Latin-1 e-acute in a comment
        path = tmp_path / "latin1.cfg"
        path.write_bytes(textwrap.dedent(GOOD_CONFIG).replace(
            "# scalar", "# caf\u00e9, scalar").encode("latin-1"))
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_unreadable_config_exits_1(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, GOOD_CONFIG)

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert "Permission denied" in err and err.count("\n") == 1

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

    def test_delta_L_after_a_breach(self, tmp_path):
        # iteration 1 breaches at node 16: summary.csv measures row 2's
        # delta_L from L_T(0), the last unbreached iteration, while
        # check_delta_L skips both pairs that touch the breach
        path = write_config(tmp_path, """\
            model = scalar-II
            theorem = 1
            mode = disc
            b_e = 0.261
            N = 20
            K = 3
        """)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        rows = [line.split(",") for line in
                (out / "summary.csv").read_text().splitlines()[1:]]
        assert [r[-1] for r in rows] == ["0", "1", "0"]
        assert [r[3:5] for r in rows[1:]] == [["nan", "nan"], [
            "1.1778843770706415", "0.1802899061527129"]]
        assert float(rows[2][3]) - float(rows[0][3]) == 0.1802899061527129
        result = cli._run_one(parse_config(path))
        assert [tr.breach_node for tr in result.traces] == [None, 16, None]
        assert engine.check_delta_L(result) == []

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
        path = write_config(tmp_path, good_config_with(field, "inf"))
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
        path = write_config(tmp_path, good_config_with(field, "1e300"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_exits_1_and_runs_the_next(self, tmp_path, capsys):
        # numpy refuses a grid of 2N + 1 = 2e15 floats (16 PB) at once,
        # so this allocates nothing
        big = write_config(tmp_path, GOOD_CONFIG.replace(
            "N = 100", "N = 1000000000000000") + f"out = {tmp_path / 'o1'}\n",
            "big.cfg")
        good = write_config(tmp_path, GOOD_CONFIG + f"out = {tmp_path / 'o2'}\n",
                            "good.cfg")
        assert main(["simulate", str(big), str(good)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {big}: out of memory: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o1").exists()
        assert (tmp_path / "o2" / "summary.csv").is_file()

    # 2^59 - 1 and 2^62 are past what numpy's linspace can size: they
    # raised ValueError and IndexError tracebacks; 10^17 it can size and
    # refuses to allocate
    @pytest.mark.parametrize("N", [2**59 - 1, 2**62, 10**17])
    def test_huge_grid_exits_1(self, tmp_path, capsys, N):
        path = write_config(tmp_path, GOOD_CONFIG.replace("N = 100",
                                                          f"N = {N}"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: out of memory: ")
        assert "Traceback" not in err and err.count("\n") == 1
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

    def test_out_name_too_long_exits_1_before_running(self, tmp_path, capsys,
                                                      monkeypatch):
        # one path component past the usual 255-byte limit
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated with an unusable output path")

        monkeypatch.setattr(engine, "run", must_not_run)
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / ("o" * 300)
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_nul_in_out_exits_1(self, tmp_path, capsys, where):
        out = f"{tmp_path}/a\0b"
        in_config = f"out = {out}\n" if where == "config" else ""
        argv = ["simulate", str(write_config(tmp_path, GOOD_CONFIG + in_config))]
        assert main(argv + (["--out", out] if where == "flag" else [])) == 1
        err = capsys.readouterr().err
        # the path is shown escaped: a terminal would drop a raw NUL
        assert "\0" not in err and "a\\x00b" in err
        assert err == (f"error: cannot write to {tmp_path}/a\\x00b: "
                       f"embedded null byte\n")

    def test_symlink_loop_in_out_exits_1(self, tmp_path, capsys):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        out = tmp_path / "a" / "out"
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out}: ")
        assert "Traceback" not in err and err.count("\n") == 1

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

    def test_numpy_scalar_overflow_exits_4(self, tmp_path, capsys,
                                           monkeypatch):
        # model I forms f + g (u + w) in its callables' own types, so on
        # numpy scalars the sum's overflow raises inside simulate; float
        # callables reach a non-finite state at the next stage instead
        def overflowing(T=None):
            base = plant.scalar_model_i()
            huge = lambda x, t: np.float64(1.6e308)
            return dataclasses.replace(
                base, f=huge, g=lambda e, t: np.float64(1.0),
                uncertainty=dataclasses.replace(base.uncertainty, w=huge))

        monkeypatch.setitem(plant.BUILTIN_MODELS, "scalar-I", overflowing)
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 4
        assert ("numerical failure: FloatingPointError: overflow"
                in capsys.readouterr().err)

    # the error README names for each bound at a limit of floats
    BOUND_FAILURES = {
        "b_V = 1e-300": "ZeroDivisionError: ",
        "b_e = 1e-170": "BarrierDomainError: b_e = 1e-170: V's bound 0.0",
        "b_V = 1.35e154": "OverflowError: ",
        "b_e = 1.16e77": "OverflowError: ",
        "b_e = 2e-162": "ZeroDivisionError: ",
    }

    # (model, fields, exit code) at the limits of each field: no input
    # ends in a traceback
    @pytest.mark.parametrize("model, fields, code", [
        ("scalar-I", ["b_V = 1e-300"], 4),
        ("scalar-I", ["b_V = 5e-324"], 4),
        ("scalar-II", ["b_e = 1e-160"], 4),
        ("scalar-I", ["b_V = 1e300"], 4),
        ("scalar-II", ["b_e = 1e200"], 4),
        ("scalar-I", ["b_V = 0.5", "T = 1e300"], 4),
        ("scalar-I", ["b_V = 0.5", "T = 1e-100"], 0),
        ("scalar-I", ["b_V = 0.5", "gamma = 1e300"], 0),
        ("scalar-I", ["b_V = 0.5", "theta_bar = 1e-300"], 0),
        ("scalar-I", ["b_V = 0.5", "theta_bar = 1e300"], 0),
        ("scalar-I", ["b_V = 0.5", "mode = cont", "eps = 1e-300"], 0),
        ("scalar-I", ["b_V = 0.5", "mode = cont", "eps = 1e300"], 0),
        ("scalar-II", ["b_e = 1e-170"], 4),  # b_e ** 2 underflows to 0.0
        # the d1 forms' float ** raises past a bound on V of about 1.34e154
        ("scalar-I", ["b_V = 1.3e154"], 0),
        ("scalar-I", ["b_V = 1.35e154"], 4),
        ("scalar-II", ["b_e = 1e76"], 0),
        ("scalar-II", ["b_e = 1.16e77"], 4),
        ("scalar-II", ["b_e = 2e-162"], 4),  # b_e ** 2 is subnormal
    ])
    def test_extreme_value_exit_code(self, tmp_path, capsys, model, fields,
                                     code):
        out = tmp_path / "out"
        path = write_config(tmp_path, "\n".join(
            [f"model = {model}", "K = 3", "N = 10", f"out = {out}"]
            + fields) + "\n")
        assert main(["simulate", str(path), "--svg"]) == code
        err = capsys.readouterr().err
        if code == 4:
            error = self.BOUND_FAILURES.get(fields[0], "")
            assert err.startswith(f"error: {path}: numerical failure: {error}")
            assert err.count("\n") == 1
        else:
            assert err == ""
            assert (out / "convergence.svg").is_file()

    # every error line shows each unprintable character escaped, so a
    # path with a newline or an ESC in it prints as one line and moves
    # no terminal state
    def test_shared_output_dir_with_newline_is_one_line(self, tmp_path,
                                                        capsys):
        p1 = write_config(tmp_path, GOOD_CONFIG, "g.cfg")
        p2 = write_config(tmp_path, GOOD_CONFIG, "h.cfg")
        out = tmp_path / "x\ny"
        assert main(["simulate", str(p1), str(p2), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {p1} and {p2} both write to {tmp_path}/x\\ny\n")

    def test_missing_config_with_escape_is_escaped(self, tmp_path, capsys):
        path = tmp_path / "no\x1b[31mpe.cfg"
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config file not found: {tmp_path}/no\\x1b[31mpe.cfg\n")

    def test_config_name_with_newline_is_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path, "model = scalar-I\nbogus = 1\n",
                            "a\nb.cfg")
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}/a\\nb.cfg:2: unknown field 'bogus'\n")

    def test_out_of_memory_while_writing_exits_1_and_runs_the_next(
            self, tmp_path, capsys, monkeypatch):
        write_trace_csv = engine.write_trace_csv

        def refuse_o1(result, path):
            if path.parent.name == "o1":
                raise MemoryError("trace table")
            write_trace_csv(result, path)

        monkeypatch.setattr(engine, "write_trace_csv", refuse_o1)
        first = write_config(tmp_path,
                             GOOD_CONFIG + f"out = {tmp_path / 'o1'}\n",
                             "first.cfg")
        good = write_config(tmp_path, GOOD_CONFIG + f"out = {tmp_path / 'o2'}\n",
                            "good.cfg")
        assert main(["simulate", str(first), str(good)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {first}: out of memory: trace table\n"
        assert (tmp_path / "o2" / "summary.csv").is_file()


class TestCompareBlf:
    def test_exit_zero_at_one(self, tmp_path, capsys):
        assert main(["compare-blf", "1.0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "blf_report.csv").is_file()
        assert "holds" in capsys.readouterr().out

    # the bytes the csv module's writer gave blf_report.csv; at 1e14
    # LII <= FIII fails its verdict, and the report is written all the same
    @pytest.mark.parametrize("bounds, code, digest", [
        (["0.5", "2.0"], 0, "09ee5897db7ec35dc0ba6580dc7e29fd"
                            "8bbe87bd9ff1f716caa838739a9bf9f2"),
        (["0.1", "1.0", "20.0"], 0, "308440a6b4717bf7eef1506972c393bf"
                                    "a72e891ec3ce93362b11da1d02ede2fd"),
        (["1e14"], 3, "68142b5c9d3937ef3fe2c6f108a0a1a5"
                      "bbae1974c30815414ebf029781ed25ef")])
    def test_report_bytes_pinned(self, tmp_path, capsys, bounds, code,
                                 digest):
        assert main(["compare-blf", *bounds, "--out", str(tmp_path)]) == code
        data = (tmp_path / "blf_report.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # argparse reads -1.0 as a negative number, but only -<digits> and
    # -<digits>.<digits>: it took the others for unknown options, a
    # two-line usage error
    @pytest.mark.parametrize("bound", ["-1e-3", "-inf", "-5e-324", "-1E3",
                                       "-1.0"])
    @pytest.mark.parametrize("layout", ["alone", "after 0.5", "--out first"])
    def test_rejects_negative_bound_in_one_line(self, tmp_path, capsys,
                                                bound, layout):
        out = ["--out", str(tmp_path)]
        argv = {"alone": [bound, *out], "after 0.5": ["0.5", bound, *out],
                "--out first": [*out, bound]}[layout]
        assert main(["compare-blf", *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: bounds must be positive and finite, got {float(bound)}\n")
        assert not (tmp_path / "blf_report.csv").exists()

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

    def test_nul_in_out_exits_1(self, tmp_path, capsys):
        out = f"{tmp_path}/a\0b"
        assert main(["compare-blf", "0.5", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot write output: embedded null byte\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bound", ["1e300", "1e103"])
    def test_overflow_exits_4(self, tmp_path, capsys, bound):
        assert main(["compare-blf", bound, "--out", str(tmp_path)]) == 4
        assert "numerical failure" in capsys.readouterr().err

    # a bound too small for floats divides by 0 (about 1e-106 and below)
    # or puts the sample grid on b (5e-324); 0.5 and 1e13 still run
    @pytest.mark.parametrize("bound, code", [
        ("1e-300", 4), ("5e-324", 4), ("1e-160", 4), ("1e-110", 4),
        ("1e13", 0), ("0.5", 0)])
    def test_bound_exit_code(self, tmp_path, capsys, bound, code):
        out = tmp_path / "report"
        assert main(["compare-blf", bound, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 4:
            assert err.startswith("error: numerical failure: ")
            assert err.count("\n") == 1
            assert not out.exists()
        else:
            assert err == ""
            assert [p.name for p in out.iterdir()] == ["blf_report.csv"]


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

    @pytest.mark.parametrize("text, code, stdout", [
        ("r,s\n1.0,0.0\n0.5,0.4\n0.2,0.2\n", 0,
         "lemma 1 (no residual): inequality holds\n"
         "  tail estimate of s: 0.2\n  s vanishes with d: False\n"),
        ("r,s,d\n1.0,0.0,0.1\n0.5,0.4,0.0\n0.2,0.2,0.05\n", 0,
         "lemma 2 (with residual): inequality holds\n"
         "  tail estimate of s: 0.2\n"),
        ("r,s\n1,1\n2,1\n3,1\n", 3,
         "lemma 1 (no residual): inequality VIOLATED (first violation at "
         "k=1)\n  tail estimate of s: 1\n  s vanishes with d: False\n"),
    ], ids=["lemma1", "lemma2", "violated"])
    def test_one_lemma_call(self, tmp_path, capsys, monkeypatch, text, code,
                            stdout):
        # the label comes from the file's columns, the verdict from one call
        seqs, check = [], analysis.lemma2_check

        def counted(seq):
            seqs.append(seq)
            return check(seq)

        monkeypatch.setattr(analysis, "lemma2_check", counted)
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text(text)
        assert main(["check-lemmas", str(csv_path)]) == code
        assert capsys.readouterr().out == stdout
        assert len(seqs) == 1

    def test_r_s_file_reads_d_as_zeros(self, tmp_path, monkeypatch):
        seqs, check = [], analysis.lemma2_check

        def recorded(seq):
            seqs.append(seq)
            return check(seq)

        monkeypatch.setattr(analysis, "lemma2_check", recorded)
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text("r,s\n1.0,0.0\n0.5,0.4\n")
        assert main(["check-lemmas", str(csv_path)]) == 0
        assert seqs[0].d.dtype == float and seqs[0].d.tolist() == [0.0, 0.0]

    def test_malformed_exit_1(self, tmp_path, capsys):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text("a,b\n1,2\n")
        assert main(["check-lemmas", str(csv_path)]) == 1

    @pytest.mark.parametrize("text, message", [
        ("r,s,d\n", "no data rows"),
        ("r,s,d\n1.0,0.1,0\n0.5,0.1\n", "d[1] is missing"),
        ("r,s\n1.0,0.1\n,0.1\n", "r[1] is missing"),
        ("r,s,d\n1.0,0.1,0\n1.0,0.1,\n", "d[1] is missing"),
        ("r,s\n1.0,0.1\n1.0, \t\n", "s[1] is missing"),
        ("r,s\n1.0,0.1\nx,0.1\n", "r[1] is not a number: 'x'"),
    ], ids=["header-only", "missing-d", "empty-r", "empty-d", "blank-s",
            "not-a-number"])
    def test_bad_rows_named(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text(text)
        assert main(["check-lemmas", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: malformed CSV: {message}\n"

    def test_column_named_twice_exit_1(self, tmp_path, capsys):
        # the second r (increasing) would be read and violate lemma 1
        csv_path = tmp_path / "seq.csv"
        rows = ["r,s,r"] + [f"{2.0 ** -k},{2.0 ** -k},{k + 1.0}"
                            for k in range(10)]
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["check-lemmas", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: malformed CSV: column r is named more than "
                       "once\n")

    def test_row_longer_than_header_exit_1(self, tmp_path, capsys):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text("r,s\n1.0,0.5\n0.5,0.4,extra\n0.25,0.2\n")
        assert main(["check-lemmas", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: malformed CSV: row 1 has more fields than "
                       "the header\n")

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" export starts the file with a BOM
        text = "r,s\r\n" + "".join(f"{2.0 ** -k},{2.0 ** -k}\r\n"
                                    for k in range(12))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["check-lemmas", str(plain)]) == 0
        want = capsys.readouterr()
        assert main(["check-lemmas", str(marked)]) == 0
        assert capsys.readouterr() == want

    def test_directory_is_not_a_file(self, tmp_path, capsys):
        assert main(["check-lemmas", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: path is not a file: {tmp_path}\n")

    def test_unreadable_file_exit_1(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text("r,s\n1.0,0.1\n")

        def denied(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr(cli, "open", denied, raising=False)
        assert main(["check-lemmas", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {csv_path}: ")
        assert "Permission denied" in err and err.count("\n") == 1

    @pytest.mark.parametrize("first", ["nan", "inf"])
    def test_nonfinite_first_r_exit_1(self, tmp_path, capsys, first):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text(f"r,s\n{first},1.0\n1.0,1.0\n")
        assert main(["check-lemmas", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert "error: malformed CSV: r[0] must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows, where", [
        ("r,s\n1.0,0.1\nnan,0.1\n0.5,0.1\n", "r[1]"),
        ("r,s\n1.0,0.1\n0.5,0.1\n0.25,nan\n", "s[2]"),
        ("r,s,d\n1.0,0.1,0\n0.5,0.1,nan\n0.25,0.1,0\n", "d[1]"),
    ], ids=["r", "s", "d"])
    def test_nan_anywhere_exit_1(self, tmp_path, capsys, rows, where):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text(rows)
        assert main(["check-lemmas", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: malformed CSV: {where} is NaN" in err
        assert "Traceback" not in err

    def test_inf_past_first_r_is_data(self, tmp_path, capsys):
        # an r that grows without bound violates the inequality
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text("r,s\n1.0,0.1\ninf,0.1\n0.5,0.1\n")
        assert main(["check-lemmas", str(csv_path)]) == 3
        assert "VIOLATED (first violation at k=1)" in capsys.readouterr().out

    def test_missing_file_with_escape_is_escaped(self, tmp_path, capsys):
        path = tmp_path / "no\x1b[31mpe.csv"
        assert main(["check-lemmas", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: file not found: {tmp_path}/no\\x1b[31mpe.csv\n")

    # csv's field limit is 131,072 characters; Python 3.10's csv also
    # raises csv.Error on a NUL byte, where 3.11 passes it to float
    @pytest.mark.parametrize("cell", ["1" * 131_073, "1\0"],
                             ids=["field-limit", "nul"])
    def test_csv_error_exit_1(self, tmp_path, capsys, cell):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text(f"r,s\n1.0,0.5\n{cell},0.4\n")
        assert main(["check-lemmas", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV: ")
        assert err.count("\n") == 1 and err[:-1].isprintable()


class TestUsage:
    # argparse exits 2 on a usage error, the code of a constraint breach
    @pytest.mark.parametrize("argv", [["compare-blf", "abc"], ["simulate"],
                                      [], ["bogus"], ["compare-blf"],
                                      ["compare-blf", "--out", "d"],
                                      ["compare-blf", "0.5", "--out", "d",
                                       "2"],
                                      ["compare-blf", "0.5", "--bogus"]])
    def test_usage_error_exit_1(self, capsys, argv):
        assert main(argv) == 1
        assert "usage: fblf-ilc" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert "usage: fblf-ilc" in capsys.readouterr().out


class TestProcess:
    """The module run as a program: its __main__ guard hands main's exit
    code to the process."""

    @staticmethod
    def run(*args):
        src = str(Path(__file__).parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, path]) if path else src)
        return subprocess.run([sys.executable, "-m", "fblf_ilc.cli", *args],
                              capture_output=True, text=True, env=env)

    def test_exit_codes(self, tmp_path):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text("r,s\n1,1\n2,1\n3,1\n")
        done = self.run("check-lemmas", str(csv_path))
        assert done.returncode == 3
        assert ("lemma 1 (no residual): inequality VIOLATED (first violation "
                "at k=1)\n") in done.stdout
        absent = tmp_path / "absent.cfg"
        done = self.run("simulate", str(absent))
        assert done.returncode == 1
        assert done.stderr == f"error: config file not found: {absent}\n"


# The CLI contract, as properties over drawn inputs: no exception escapes
# main, the exit code is a documented one, and stderr holds at most one
# line, every character of it printable.  Hypothesis runs many examples
# in one test call and rejects function-scoped fixtures such as tmp_path
# and capsys, so each example makes its own temporary directory and
# captures its own output.

def run_main(argv):
    """main(argv)'s exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_at_most_one_printable_line(err):
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")
                         and err[:-1].isprintable()), repr(err)


# a file name with a newline and an ESC among its characters
NAME = st.text("ab\n\x1b -", min_size=1, max_size=6)
FLOAT = st.one_of(
    st.floats(0.01, 10.0).map(repr),
    st.sampled_from(["0", "-0.0", "1e308", "5e-324", "1e-300", "inf", "-inf",
                     "nan", "1.7976931348623157e308"]),
    st.floats().map(repr))
# sizes run in milliseconds or fail before anything is allocated: K <= 0
# fails in the parser and N >= 2^58 in TimeGrid; a mid-size N is never
# drawn
SIZE_K = st.one_of(st.integers(1, 3), st.integers(1, 3),
                   st.sampled_from([0, -1, -2**63]))
SIZE_N = st.one_of(st.integers(2, 50), st.integers(2, 50),
                   st.sampled_from([-1, 0, 1, 2**58, 2**59 - 1, 2**62, 2**64,
                                    10**30]))
KNOWN = {
    "model": st.sampled_from(["scalar-I", "scalar-II", "scalar-III", ""]),
    "theorem": st.sampled_from(["1", "2", "3", "0", "-1", str(2**63), "1_0"]),
    "mode": st.sampled_from(["disc", "cont", "disc", "cont", "DISC", ""]),
    **{key: FLOAT for key in ("eps", "gamma", "theta_bar", "T", "b_V",
                              "b_e")},
    "K": SIZE_K.map(str),
    "N": SIZE_N.map(str),
}


def key_lines(values):
    return [f"{key} = {value}".encode() for key, value in values.items()]


# a key set at most once, and then lines of any kind: a key set again,
# an unknown key or junk
FIELDS = st.fixed_dictionaries({}, optional={
    key: KNOWN[key] for key in ("theorem", "mode", "eps", "gamma",
                                "theta_bar", "T")}).map(key_lines)
KEY_LINE = st.one_of(*(value.map(lambda v, k=key: key_lines({k: v})[0])
                       for key, value in KNOWN.items()))
UNKNOWN_LINE = st.sampled_from([b"bogus = 1", b"svg = true", b"= 1",
                                b"B_V = 0.5", b"allow_disc_thm2 = 1"])
# junk holds no digit, so it cannot set K or N to a size
JUNK = [b"=", b"#", b" ", b"\t", b"\0", b"\x1b", b"\xff", b"\xc2\x85",
        b"\xe2\x80\xa8", b"\xef\xbb\xbf", b"\x0c", b"a", b"-", b".", b"_",
        b"e", b"inf", b"nan", b"model", b"b_V", b"K", b"N"]
JUNK_LINE = st.lists(st.sampled_from(JUNK), max_size=6).map(b"".join)
EXTRA = st.lists(st.one_of(KEY_LINE, UNKNOWN_LINE, JUNK_LINE), max_size=1)
# a model and its bound, so that some drawn configs run
HEAD = st.sampled_from([[], *[[b"model = scalar-I", b"b_V = 0.5"],
                             [b"model = scalar-II", b"b_e = 1"]] * 2])
EOL = st.sampled_from([b"\n", b"\r", b"\r\n"])

CELL = st.one_of(
    *[st.floats(0.0, 10.0).map(repr)] * 2,
    st.floats().map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "x", " 1", "1_0",
                     '"1"', '"', "\0", "\x1b", "\ufeff"]))
HEADER = st.one_of(st.just(["r", "s"]), st.just(["r", "s", "d"]),
                   st.lists(st.sampled_from(["r", "s", "d", "x", "", "R"]),
                            max_size=4))


@st.composite
def csv_tables(draw):
    """A header and rows, most of them as wide as the header."""
    header = draw(HEADER)
    row = st.one_of(*[st.lists(CELL, min_size=len(header),
                               max_size=len(header))] * 3,
                    st.lists(CELL, max_size=4))
    return [header, *draw(st.lists(row, max_size=6))]


BOUND = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf", "5e-324",
                     "1e-310", "1e308", "1e103", "1e13", "0.5", "1"]),
    st.floats().map(repr))


class TestContract:
    @settings(max_examples=120, deadline=None)
    @given(name=NAME, head=HEAD, fields=FIELDS, extra=EXTRA, K=SIZE_K,
           N=SIZE_N, eol=EOL, out=st.text("ab\n\x1b\0-", max_size=4),
           flag=st.booleans())
    @example(name="a\nb", head=[b"model = scalar-I", b"b_V = 0.5"],
             fields=[], extra=[b"bogus = 1"], K=1, N=10, eol=b"\n", out="",
             flag=False)
    def test_simulate(self, name, head, fields, extra, K, N, eol, out, flag):
        # a newline in out can only come in through --out
        flag = flag or "\n" in out
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / f"o{out}"
            body = [*head, *fields, *extra, *key_lines({"K": K, "N": N})]
            if not flag:
                body.append(f"out = {out_dir}".encode())
            path = Path(tmp) / f"{name}.cfg"
            path.write_bytes(eol.join(body) + eol)
            code, err = run_main(["simulate", str(path)]
                                 + (["--out", str(out_dir)] if flag else []))
            assert code in (0, 1, 2, 4)
            assert_at_most_one_printable_line(err)
            if code in (0, 2):
                assert (out_dir / "trace.csv").is_file()
                assert (out_dir / "summary.csv").is_file()

    @settings(max_examples=120, deadline=None)
    @given(name=NAME, table=csv_tables(), eol=EOL,
           exists=st.sampled_from([True, True, True, False]))
    @example(name="seq", table=[["r", "s"], ["1.0", "0.5"],
                                ["1" * 131_073, "0.4"]], eol=b"\n",
             exists=True)
    def test_check_lemmas(self, name, table, eol, exists):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.csv"
            if exists:
                path.write_bytes(eol.join(",".join(cells).encode()
                                          for cells in table) + eol)
            code, err = run_main(["check-lemmas", str(path)])
        assert code in (0, 1, 3)
        assert_at_most_one_printable_line(err)

    @settings(max_examples=60, deadline=None)
    @given(bounds=st.lists(BOUND, min_size=1, max_size=2),
           form=st.sampled_from(["--out first", "--out last", "--"]))
    def test_compare_blf(self, bounds, form):
        with tempfile.TemporaryDirectory() as tmp:
            # with or without "--", a bound such as -inf is not an option
            out = ["--out", tmp]
            argv = {"--out first": [*out, *bounds],
                    "--out last": [*bounds, *out],
                    "--": [*out, "--", *bounds]}[form]
            code, err = run_main(["compare-blf", *argv])
            assert code in (0, 1, 3, 4)
            assert_at_most_one_printable_line(err)
            if code in (0, 3):
                assert (Path(tmp) / "blf_report.csv").is_file()
