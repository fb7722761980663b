"""Golden snapshots of the JSON reports, compared byte for byte.

The inputs in ``golden/inputs`` are the corpus fields (written from the
builders in ``dulac.corpus``) and four grid fields.  ``normalize``
and ``diagnose`` run on each field at its own truncation order,
``diagnose`` with the commuting field where the corpus has one, and
``centralizer`` runs on the normal form that ``normalize`` printed for
it; ``CENTRALIZERS`` adds solves over the unrestricted space and at a
bound below the field's order.  ``resonances`` lists each field's
resonances through its order, and ``kernel-intersection`` runs on the
spectrum pairs in ``JOINT``.
The fields in ``DEEP`` run ``normalize`` only: its report prints the
normalizing transformation's coefficients, whose growth with the order
is what the convergence verdicts read.  The fields in ``DIGESTS`` do the
same at orders whose reports are too large to keep, so only the sha256
of the report is pinned.
Exact arithmetic makes every report a function of its input, so any
change in these bytes is a change in behaviour.

After a deliberate output change, re-pin with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff; it
prints the new digests, which go into ``DIGESTS`` by hand.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from dulac.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# field name -> truncation order (and centralizer degree bound)
ORDERS = {
    "horn": 12,
    "linearizable-3d": 8,
    "so2": 7,
    "holomorphic": 6,
    "saddle": 7,
    "grid-d2-o6": 6,
    "grid-d3-o6": 6,
}
# normalize only, at a deeper order
DEEP = {"grid-d3-o8": 8, "grid-d4-o8": 8}
# normalize only: name -> (order, sha256 of the JSON report)
DIGESTS = {
    "grid-d4-o10": (10, "cc395f0451651cd3b5cbffd5ca6b5140"
                        "207061e5e3e3c843a95a47d02a0ee490"),
}
# centralizer only: snapshot name -> (field, degree bound, extra flags)
CENTRALIZERS = {
    "so2-unrestricted": ("so2", 7, ("--unrestricted",)),
    "grid-d3-o6-bound4": ("grid-d3-o6", 4, ()),
    "grid-d3-o6-bound4-unrestricted": ("grid-d3-o6", 4, ("--unrestricted",)),
}
WITH_SYMMETRY = {"so2", "holomorphic"}
COMMANDS = ("normalize", "diagnose", "centralizer", "resonances")
# snapshot name -> (spectrum a, spectrum b, maximum degree)
JOINT = {
    "joint-1_-3_9-1_-2_4": ("1,-3,9", "1,-2,4", "10"),
    "joint-1_-1-1_-1": ("1,-1", "1,-1", "7"),
}
CASES = ([(name, command) for name in ORDERS for command in COMMANDS]
         + [(name, "normalize") for name in DEEP]
         + [(name, "centralizer") for name in CENTRALIZERS]
         + [(name, "kernel-intersection") for name in JOINT])


def _argv(name: str, command: str, out: Path) -> list:
    if command == "kernel-intersection":
        spec_a, spec_b, degree = JOINT[name]
        return [command, "--spec-a", spec_a, "--spec-b", spec_b,
                "--max-degree", degree, "--json", "--out", str(out)]
    if command == "centralizer":
        field, degree, flags = CENTRALIZERS.get(name,
                                                (name, ORDERS.get(name), ()))
        return [command, "--input", str(INPUTS / f"{field}.normal-form.json"),
                "--degree", str(degree), *flags, "--json", "--out", str(out)]
    order = str(ORDERS.get(name) or DEEP[name])
    if command == "resonances":
        argv = [command, "--input", str(INPUTS / f"{name}.json"),
                "--max-degree", order]
    else:
        argv = [command, "--input", str(INPUTS / f"{name}.json"),
                "--order", order]
    if command == "diagnose" and name in WITH_SYMMETRY:
        argv += ["--symmetry", str(INPUTS / f"{name}-symmetry.json")]
    return argv + ["--json", "--out", str(out)]


def _snapshot(name: str, command: str) -> Path:
    return GOLDEN / f"{name}.{command}.json"


@pytest.mark.parametrize("name,command", CASES,
                         ids=[f"{n}-{c}" for n, c in CASES])
def test_json_report_matches_snapshot(name, command, tmp_path):
    out = tmp_path / "report.json"
    assert main(_argv(name, command, out)) == 0
    assert out.read_bytes() == _snapshot(name, command).read_bytes()


def _digest(name: str, out: Path) -> str:
    order = str(DIGESTS[name][0])
    assert main(["normalize", "--input", str(INPUTS / f"{name}.json"),
                 "--order", order, "--json", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_json_report_matches_digest(name, tmp_path):
    assert _digest(name, tmp_path / "report.json") == DIGESTS[name][1]


if __name__ == "__main__":
    for name, command in CASES:
        if main(_argv(name, command, _snapshot(name, command))) != 0:
            raise SystemExit(f"{name} {command} failed")
    with tempfile.TemporaryDirectory() as work:
        for name in DIGESTS:
            print(name, _digest(name, Path(work) / "report.json"))
