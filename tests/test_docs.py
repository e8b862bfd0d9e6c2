"""README's figures about the reference scan, rebuilt from the committed
record `reference_scan.json` and looked up in README.md, and README's CLI
examples run through the CLI."""

import json
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from zsig.cli import main

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
