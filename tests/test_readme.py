"""The README's library quick start, run as written: each line that is an
expression must print the value its comment gives."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
