"""The README's examples, run as written: each line of the library quick
start that is an expression must print the value its comment gives, and
each command of the CLI block must exit 0 and print the lines its comments
give; and the window budget figures and the test count it quotes are the
code's."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wpoisson import catalog, complexes
from wpoisson.ring import count_monomials

from conftest import DESELECTED
from reference_maps import window_top

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _quick_start_block():
    text = README.read_text()
    start = text.index("```python", text.index("## Library quick start"))
    return text[start:].split("\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_shows_its_values():
    namespace = {}
    shown = []
    for line in _quick_start_block().splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        shown.append((eval(expr, namespace), comment.split(",")[0].strip()))
    assert [value for value, _ in shown] == ["2*z", "0", 0, 2]
    assert [repr(value) for value, _ in shown] == [note for _, note in shown]


def _cli_block():
    """(argv, shown lines) for each command of the README's CLI block, its
    continuation lines joined; a shown line is a ``# key: value`` comment
    under the command"""
    text = README.read_text()
    start = text.index("```sh", text.index("## CLI"))
    block = text[start:].split("\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("wpoisson "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            commands[-1][1].append(line[2:])
    return commands


def test_readme_cli_block_runs_and_shows_its_values():
    commands = _cli_block()
    assert len(commands) == 6
    assert sum(len(shown) for _, shown in commands) == 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, shown in commands:
        res = subprocess.run([sys.executable, "-m", "wpoisson", *argv], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, (argv, res.stderr)
        lines = res.stdout.splitlines()
        assert all(line in lines for line in shown), (argv, shown)


def test_readme_quotes_the_window_budget_and_the_largest_default_window():
    """the budget and the largest monomial count of a catalog entry's
    window at its default bound, as the code has them"""
    largest = max(
        sum(count_monomials(e.weights, d)
            for d in range(window_top(e.omega, complexes.default_bound(e.degree)) + 1))
        for e in catalog.entries())
    text = " ".join(README.read_text().split())
    assert ("`complexes.WINDOW_BUDGET` monomials (%s; the largest default window in the "
            "catalog holds %s)" % (format(complexes.WINDOW_BUDGET, ","), format(largest, ","))
            ) in text


def test_readme_quotes_the_test_count(request):
    """the count in the README's Tests section is the number of tests the
    whole suite collects; a run of part of the suite cannot check it"""
    items = request.session.items
    every = set(Path(__file__).resolve().parent.glob("test_*.py"))
    if DESELECTED or not every <= {Path(str(item.fspath)) for item in items}:
        pytest.skip("only part of the suite is collected")
    (quoted,) = re.findall(r"^([\d,]+) tests, about", README.read_text(), re.M)
    assert int(quoted.replace(",", "")) == len(items)
