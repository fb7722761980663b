"""Fixtures shared by the test modules.

``digest_report`` builds the ``normalize --json`` report of each
``DIGESTS`` case of ``test_golden.py`` once per session: ``test_golden``
checks its sha256 and ``test_certify`` certifies it, so the two share
one run of the largest ``normalize`` jobs in the suite.
``dump_document`` writes a field or family dict as a document file holds
it: indented JSON and a final newline, as the golden inputs are written.
"""

import json
from pathlib import Path

import pytest

from certify import pinned_digests
from dulac.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"


def dump_document(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def write_digest_report(name: str, out: Path) -> Path:
    """Write the ``normalize --json`` report of the ``DIGESTS`` case
    ``name`` to ``out``."""
    order = str(pinned_digests()[name][0])
    assert main(["normalize", "--input", str(INPUTS / f"{name}.json"),
                 "--order", order, "--json", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def digest_report(tmp_path_factory):
    """The path of a ``DIGESTS`` case's report, built on first request."""
    reports = {}

    def report(name: str) -> Path:
        if name not in reports:
            out = tmp_path_factory.mktemp(name) / "report.json"
            reports[name] = write_digest_report(name, out)
        return reports[name]

    return report
