"""Golden snapshots of the reports, compared byte for byte.

The inputs in ``golden/inputs`` are the corpus fields (written from the
builders in ``dulac.corpus``), four grid fields and ``bruno-saddle``,
the field of the README's library example.  The ``.normal-form.json``
input of each ``ORDERS`` field is the normal form that its ``normalize``
golden prints.  ``normalize`` and ``diagnose`` run on each field at
its own truncation order,
``diagnose`` with the commuting field where the corpus has one, and
``centralizer`` runs on the normal form that ``normalize`` printed for
it; ``SYMMETRY_DIAGNOSES`` adds ``diagnose`` of a field with its
symmetry, named after the symmetry's input, for a field whose plain
``diagnose`` is pinned too; ``CENTRALIZERS`` adds solves over the
unrestricted space, at a bound below the field's order (among them the
two solves of the so2 corpus entry), and on the two
dim-4 normal forms of the benchmark's centralizer-solve workload, whose
input documents are copied byte for byte from ``bench/workloads.py`` at
seed 7.  Every unrestricted solve with a restricted twin on the same
field and bound must print the twin's dimension.  ``resonances`` lists
each field's resonances through its order, and ``kernel-intersection``
runs on the spectrum pairs in ``JOINT``.
The fields in ``DEEP`` run ``normalize`` only: its report prints the
normalizing transformation's coefficients, whose growth with the order
is what the convergence verdicts read.  The fields in ``DIGESTS`` do the
same at orders whose reports are too large to keep, so only the sha256
of the report is pinned; two of them are the benchmark's order-12 and
order-10 deep-diagnose fields, whose transformation the benchmark's own
``diagnose`` digests do not cover.  Their reports come from the
session fixture ``digest_report`` in ``conftest.py``, which
``test_certify.py`` shares, so each runs once per session.
``TEXT_CASES`` pin the default text report of the same commands on the
``ORDERS`` fields and the ``JOINT`` pairs.  The family documents
``hopf.family.json`` and ``oscillator.family.json`` are written from the
corpus builders; ``bifurcation`` runs on them in both formats (the
oscillator family also in its own layout) and ``suspend`` turns each
into a field document.
Every text snapshot has a JSON twin, and the command line renders its
text report from the JSON payload; rendering the parsed twin must give
the text snapshot's bytes, so the certificate's checks of the JSON
reports cover the text ones too.
Exact arithmetic makes every report a function of its input, so any
change in these bytes is a change in behaviour.

After a deliberate output change, re-pin with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff; it
prints the new digests, which go into ``DIGESTS`` by hand.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from conftest import dump_document
from dulac.cli import TEXT_RENDERERS, main
from dulac.corpus import hopf_family, oscillator_family
from dulac.fieldfile import family_to_dict

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
    # the README's library field, whose normal form is (1 + alpha) Ax
    # with alpha nonzero: Bruno's criterion on a nonlinear normal form
    "bruno-saddle": 6,
}
# normalize only, at a deeper order
DEEP = {"grid-d3-o8": 8, "grid-d4-o8": 8}
# normalize only: name -> (order, sha256 of the JSON report); certify.py
# reads this table with ast.literal_eval, so it stays a plain literal
DIGESTS = {
    "grid-d4-o10": (10, "cc395f0451651cd3b5cbffd5ca6b5140"
                        "207061e5e3e3c843a95a47d02a0ee490"),
    # the dim-3 grid field of grid-d3-o8 at order 12
    "grid-d3-o12": (12, "fd81cdcc655314bbe6fcef1b15aff118"
                        "e4aa847dcb5092922a5a97375a1be7c3"),
    # the dim-4 grid field of grid-d4-o10 at order 12
    "grid-d4-o12": (12, "e1bd587bc47d2575cb6cfa967ba19136"
                        "dce74083281c87836068a6f28c08094d"),
    # the two highest-order fields of the benchmark's deep-diagnose workload
    # (bench/workloads.py, seed 7), whose diagnose report omits Psi
    "deep-d2-o12": (12, "d2b8aca0b9c81d655ba97e5ff261422a"
                        "23e070b668bf5a6c94669099402b4d5a"),
    "deep-d2-o10": (10, "fd146474e24fade71430260859048a24"
                        "4f4b538d1d804b997e43cf8395029adc"),
}
# centralizer only: snapshot name -> (field, degree bound, extra flags);
# certify.py reads this table with ast.literal_eval too
CENTRALIZERS = {
    "so2-unrestricted": ("so2", 7, ("--unrestricted",)),
    # the two solves of the so2 corpus entry
    "so2-bound5": ("so2", 5, ()),
    "so2-bound5-unrestricted": ("so2", 5, ("--unrestricted",)),
    "grid-d3-o6-bound4": ("grid-d3-o6", 4, ()),
    "grid-d3-o6-bound4-unrestricted": ("grid-d3-o6", 4, ("--unrestricted",)),
    # the dim-4 normal forms of the benchmark's centralizer-solve workload
    # (bench/workloads.py, seed 7), with spectra (1,-1,1,-1) and (1,-1,2,-2)
    "solve-s1": ("solve-s1", 13, ()),
    "solve-s1-bound9-unrestricted": ("solve-s1", 9, ("--unrestricted",)),
    "solve-s2": ("solve-s2", 9, ()),
    "solve-s2-unrestricted": ("solve-s2", 9, ("--unrestricted",)),
}
WITH_SYMMETRY = {"so2", "holomorphic"}
# diagnose only: symmetry input name -> the field it commutes with; the
# paper's joint-kernel linearization, diag(1, -2, 4) with a field of
# spectrum (1, -3, 9); certify.py reads this table with ast.literal_eval too
SYMMETRY_DIAGNOSES = {"linearizable-3d-symmetry": "linearizable-3d"}
COMMANDS = ("normalize", "diagnose", "centralizer", "resonances")
# snapshot name -> (spectrum a, spectrum b, maximum degree)
JOINT = {
    "joint-1_-3_9-1_-2_4": ("1,-3,9", "1,-2,4", "10"),
    "joint-1_-1-1_-1": ("1,-1", "1,-1", "7"),
}
CASES = ([(name, command) for name in ORDERS for command in COMMANDS]
         + [(name, "normalize") for name in DEEP]
         + [(name, "centralizer") for name in CENTRALIZERS]
         + [(name, "diagnose") for name in SYMMETRY_DIAGNOSES]
         + [(name, "kernel-intersection") for name in JOINT])
TEXT_CASES = ([(name, command) for name in ORDERS for command in COMMANDS]
              + [(name, "diagnose") for name in SYMMETRY_DIAGNOSES]
              + [(name, "kernel-intersection") for name in JOINT])
# family input name -> the corpus builder its document is written from
FAMILY_BUILDERS = {"hopf": hopf_family, "oscillator": oscillator_family}
# bifurcation snapshot name -> (family input, extra flags); certify.py
# reads this table with ast.literal_eval too
BIFURCATIONS = {
    "hopf": ("hopf", ()),
    "oscillator": ("oscillator", ()),
    "oscillator-layout": ("oscillator", ("--layout", "oscillator")),
}
# (snapshot name, command, format); suspend always writes a JSON document
FAMILY_CASES = ([(name, "bifurcation", fmt) for name in BIFURCATIONS
                 for fmt in ("txt", "json")]
                + [(name, "suspend", "json") for name in FAMILY_BUILDERS])


def _family_input(name: str) -> Path:
    return INPUTS / f"{name}.family.json"


def _argv(name: str, command: str, out: Path, fmt: str = "json") -> list:
    tail = (["--json"] if fmt == "json" else []) + ["--out", str(out)]
    if command == "suspend":
        return [command, "--family", str(_family_input(name)),
                "--out", str(out)]
    if command == "bifurcation":
        family, flags = BIFURCATIONS[name]
        return [command, "--family", str(_family_input(family)),
                *flags, *tail]
    if command == "kernel-intersection":
        spec_a, spec_b, degree = JOINT[name]
        return [command, "--spec-a", spec_a, "--spec-b", spec_b,
                "--max-degree", degree, *tail]
    if command == "centralizer":
        field, degree, flags = CENTRALIZERS.get(name,
                                                (name, ORDERS.get(name), ()))
        return [command, "--input", str(INPUTS / f"{field}.normal-form.json"),
                "--degree", str(degree), *flags, *tail]
    if name in SYMMETRY_DIAGNOSES:
        field = SYMMETRY_DIAGNOSES[name]
        return [command, "--input", str(INPUTS / f"{field}.json"),
                "--order", str(ORDERS[field]),
                "--symmetry", str(INPUTS / f"{name}.json"), *tail]
    order = str(ORDERS.get(name) or DEEP[name])
    if command == "resonances":
        argv = [command, "--input", str(INPUTS / f"{name}.json"),
                "--max-degree", order]
    else:
        argv = [command, "--input", str(INPUTS / f"{name}.json"),
                "--order", order]
    if command == "diagnose" and name in WITH_SYMMETRY:
        argv += ["--symmetry", str(INPUTS / f"{name}-symmetry.json")]
    return argv + tail


def _snapshot(name: str, command: str, fmt: str = "json") -> Path:
    return GOLDEN / f"{name}.{command}.{fmt}"


@pytest.mark.parametrize("name,command", CASES,
                         ids=[f"{n}-{c}" for n, c in CASES])
def test_json_report_matches_snapshot(name, command, tmp_path):
    out = tmp_path / "report.json"
    assert main(_argv(name, command, out)) == 0
    assert out.read_bytes() == _snapshot(name, command).read_bytes()


@pytest.mark.parametrize("name,command", TEXT_CASES,
                         ids=[f"{n}-{c}" for n, c in TEXT_CASES])
def test_text_report_matches_snapshot(name, command, tmp_path):
    out = tmp_path / "report.txt"
    assert main(_argv(name, command, out, "txt")) == 0
    assert out.read_bytes() == _snapshot(name, command, "txt").read_bytes()


TEXT_SNAPSHOTS = sorted(GOLDEN.glob("*.txt"))


def test_every_text_snapshot_has_a_json_twin():
    assert len(TEXT_SNAPSHOTS) == len(TEXT_CASES) + len(BIFURCATIONS) == 38
    assert all(path.with_suffix(".json").exists() for path in TEXT_SNAPSHOTS)


@pytest.mark.parametrize("snapshot", TEXT_SNAPSHOTS,
                         ids=[path.stem for path in TEXT_SNAPSHOTS])
def test_text_snapshot_is_rendered_from_its_json_twin(snapshot):
    command = snapshot.stem.rsplit(".", 1)[1]
    payload = json.loads(snapshot.with_suffix(".json").read_text())
    rendered = TEXT_RENDERERS[command](payload) + "\n"
    assert rendered.encode() == snapshot.read_bytes()


@pytest.mark.parametrize("name", ORDERS)
def test_normal_form_input_is_the_normalize_golden(name):
    report = json.loads(_snapshot(name, "normalize").read_text())
    assert (INPUTS / f"{name}.normal-form.json").read_text() == dump_document(
        report["normal_form"])


def _family_document(name: str) -> str:
    return dump_document(family_to_dict(FAMILY_BUILDERS[name]()))


@pytest.mark.parametrize("name", FAMILY_BUILDERS)
def test_family_input_matches_builder(name):
    assert _family_input(name).read_text() == _family_document(name)


@pytest.mark.parametrize("name,command,fmt", FAMILY_CASES,
                         ids=[f"{n}-{c}-{f}" for n, c, f in FAMILY_CASES])
def test_family_report_matches_snapshot(name, command, fmt, tmp_path):
    out = tmp_path / "report"
    assert main(_argv(name, command, out, fmt)) == 0
    assert out.read_bytes() == _snapshot(name, command, fmt).read_bytes()


def _centralizer_twins() -> list:
    """(restricted, unrestricted) snapshot names of every pair of
    centralizer goldens on one field at one degree bound."""
    solves = {(name, order, True): name for name, order in ORDERS.items()}
    for name, (field, degree, flags) in CENTRALIZERS.items():
        solves[field, degree, "--unrestricted" not in flags] = name
    return [(solves[field, degree, True], name)
            for (field, degree, restricted), name in solves.items()
            if not restricted and (field, degree, True) in solves]


CENTRALIZER_TWINS = _centralizer_twins()


@pytest.mark.parametrize("restricted,unrestricted", CENTRALIZER_TWINS,
                         ids=[u for _, u in CENTRALIZER_TWINS])
def test_unrestricted_golden_matches_its_restricted_twin(restricted,
                                                         unrestricted):
    """The search over the whole space finds the dimension that the
    search over Ker(ad A) finds, as the benchmark checks on its twins."""
    reports = [json.loads(_snapshot(name, "centralizer").read_text())
               for name in (restricted, unrestricted)]
    flags = [r["restricted_to_resonant_kernel"] for r in reports]
    assert flags == [True, False]
    assert reports[0]["dimension"] == reports[1]["dimension"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_json_report_matches_digest(name, digest_report):
    assert _sha256(digest_report(name)) == DIGESTS[name][1]


if __name__ == "__main__":
    from conftest import write_digest_report

    for name in FAMILY_BUILDERS:
        _family_input(name).write_text(_family_document(name))
    for name, command, fmt in ([(n, c, "json") for n, c in CASES]
                               + [(n, c, "txt") for n, c in TEXT_CASES]
                               + FAMILY_CASES):
        if main(_argv(name, command, _snapshot(name, command, fmt),
                      fmt)) != 0:
            raise SystemExit(f"{name} {command} {fmt} failed")
    with tempfile.TemporaryDirectory() as work:
        for name in DIGESTS:
            print(name, _sha256(write_digest_report(
                name, Path(work) / "report.json")))
