"""README's citations resolve, and its theorem table is plant's.

Each BENCH_<n>.json that README names exists at the repository root,
each tests/<file>.py exists, and each tests/<file>.py::Name[::name]
names a class or function in that file (and a method of that class).
ROADMAP item numbers are not checked: a re-anchor closes items without
renumbering them.
"""

import ast
import re
from pathlib import Path

import pytest

from fblf_ilc import plant

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def unresolved(text) -> list[str]:
    """The citations in text that name no file, class or function."""
    missing = [name for name in re.findall(r"BENCH_\d+\.json", text)
               if not (ROOT / name).is_file()]
    for path, names in re.findall(r"(tests/\w+\.py)((?:::\w+)*)", text):
        if not (ROOT / path).is_file():
            missing.append(path)
            continue
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names.split("::")[1:]:
            found = [node for node in scope
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name]
            if not found:
                missing.append(path + names)
                break
            scope = found[0].body
    return missing


def test_citations_resolve():
    assert unresolved(README) == []


@pytest.mark.parametrize("text", [
    "see BENCH_99.json", "tests/test_nowhere.py",
    "tests/test_cli.py::TestNowhere", "tests/test_cli.py::TestSimulate::nowhere",
])
def test_a_missing_name_is_reported(text):
    assert unresolved(text) == [text.removeprefix("see ")]


def test_theorem_table_is_plants():
    rows = [line.split("|")[1:6] for line in README.splitlines()
            if re.match(r"\| I+ +\| \d", line)]
    table = {(model.strip(), int(theorem)): (gain.strip(), monitor.strip(),
                                             smoothed.strip() == "yes")
             for model, theorem, gain, monitor, smoothed in rows}
    want = {(name, theorem): (s.gain.value, s.monitor.value, s.smoothed)
            for name, model in (("I", plant.ErrorModelI),
                                ("II", plant.ErrorModelII))
            for theorem, s in model.theorems.items()}
    assert table == want
