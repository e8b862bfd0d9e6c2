"""README's figures about the reference scan, rebuilt from the committed
record `reference_scan.json` and looked up in README.md, README's CLI
examples run through the CLI, README's Library block run through the
library, and README's exception table read back against the literal."""

import ast
import json
import re
import shlex
from collections import Counter
from enum import Enum
from pathlib import Path

import pytest

from zsig.cli import main
from zsig.zsigmondy import EXCEPTION_TABLE, ExceptionKind

ROOT = Path(__file__).resolve().parent.parent


def _collapse(text):
    return " ".join(text.split())


def _readme_claims():
    report = json.loads((ROOT / "reference_scan.json").read_text())
    summary = report["summary"]
    per_n = Counter(e["n"] for e in report["incomplete"]).most_common()
    listed = [f"{n} ({count})" for n, count in per_n]
    return [
        f"{summary['incomplete_count']} of the {summary['triples_scanned']}",
        "n = " + ", ".join(listed[:-1]) + " and " + listed[-1],
        f"{round(summary['elapsed_seconds'])} s",
    ]


def test_readme_figures_match_reference_scan():
    readme = _collapse((ROOT / "README.md").read_text())
    for claim in _readme_claims():
        assert claim in readme, claim


def _cli_examples():
    """(argv, comment) for each `zsig ...  # comment` line of README's CLI
    block."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        yield shlex.split(command)[1:], comment.strip()


EXIT_NOTE = re.compile(r"\bexit (\d)\b")
EXIT_EXAMPLES = [
    (argv, int(m.group(1)))
    for argv, comment in _cli_examples()
    if (m := EXIT_NOTE.search(comment))
]
VALUE_EXAMPLES = [
    (argv, comment.split("(", 1)[0].strip())
    for argv, comment in _cli_examples()
    if argv[0] in ("coeffs", "eval")
]


@pytest.mark.parametrize(
    "argv,code", EXIT_EXAMPLES, ids=[" ".join(argv) for argv, _ in EXIT_EXAMPLES]
)
def test_readme_cli_exit_codes(capsys, argv, code):
    assert main(argv) == code


@pytest.mark.parametrize(
    "argv,shown", VALUE_EXAMPLES, ids=[" ".join(argv) for argv, _ in VALUE_EXAMPLES]
)
def test_readme_cli_values(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == shown


def test_readme_cli_examples_found():
    assert [argv[0] for argv, _ in EXIT_EXAMPLES] == ["analyze"] * 3
    assert [argv[0] for argv, _ in VALUE_EXAMPLES] == ["coeffs", "eval"]


def _library_block():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1]
    return block.split("```", 1)[0]


def test_readme_library_values():
    """Run the Library block statement by statement; every expression
    whose line ends in `# value (note)` must show that value: its repr,
    or for an enum member its name as written in code."""
    block = _library_block()
    lines = block.splitlines()
    scope: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        comment = lines[stmt.lineno - 1].partition("#")[2].strip()
        if not (isinstance(stmt, ast.Expr) and comment):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        shown = str(value) if isinstance(value, Enum) else repr(value)
        token = re.split(r"\s+\(", comment, maxsplit=1)[0]
        checked.append((ast.unparse(stmt), token, shown))
    assert len(checked) == 6
    for source, token, shown in checked:
        assert token == shown, source


FAMILY = re.compile(r"a \+ b = (?:(\d+)·)?2\^s")


def _readme_table_rows():
    """(n, members, kind) for each row of README's exception table: an
    (a, b) pair per member, or at n = 2 the odd part of the a + b family."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## The exception table", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].isdigit():
            continue
        n, members, kind = cells
        if m := FAMILY.fullmatch(members):
            listed = (int(m.group(1) or 1),)
        else:
            listed = tuple(
                (int(a), int(b)) for a, b in re.findall(r"\((\d+), (\d+)\)", members)
            )
        yield int(n), listed, ExceptionKind(kind.strip("`"))


def test_readme_exception_table_matches_literal():
    # row for row, in order, none missing and none extra
    assert list(_readme_table_rows()) == list(EXCEPTION_TABLE)
