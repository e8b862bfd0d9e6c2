"""README's figures about the reference scan, rebuilt from the committed
record `reference_scan.json` and looked up in README.md."""

import json
from collections import Counter
from pathlib import Path

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
