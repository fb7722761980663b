"""Self-tests of the benchmark itself (not of dulac).

    python3 bench/selftest.py

Checks that inputs are a pure function of the seed, that each kind of
job failure is counted (a centralizer dimension mismatch too), that
every span point resolves and is patched at every binding, and that
golden digests cover every input variant.
Exits with status 1 on the first failing check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import run
import spans
import workloads


def check_seeded_documents() -> None:
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 3)
        again = workloads.build(name, 3)
        assert first.docs == again.docs, f"{name}: same seed, other bytes"
        assert first.jobs == again.jobs
        wrapped = workloads.build(name, 3 + workloads.VARIANTS)
        assert wrapped.docs == first.docs, f"{name}: variants do not wrap"
        other = workloads.build(name, 4)
        assert other.docs != first.docs, f"{name}: seed changes nothing"
        assert other.jobs == first.jobs, f"{name}: seed changes the jobs"


def check_integer_resonance() -> None:
    ispec = workloads._integer_spectrum(
        workloads.spectrum(1, (Fraction(-1, 7), Fraction(2, 5))))
    assert ispec == [(35, 0), (-5, 14)]
    assert not any(workloads.is_resonant(ispec, e, j)
                   for d in range(2, 8) for e in workloads.monomials(2, d)
                   for j in range(2))
    saddle = workloads._integer_spectrum(workloads.spectrum(1, -1, 1, -1))
    assert workloads.is_resonant(saddle, (2, 1, 0, 0), 0)
    assert not workloads.is_resonant(saddle, (1, 1, 0, 0), 0)
    for key, shape in workloads.CENTRALIZER_INPUTS:
        ispec = workloads._integer_spectrum(shape.spectrum)
        for variant in range(workloads.VARIANTS):
            doc = json.loads(workloads.build("centralizer-solve",
                                             variant).docs[key])
            assert all(workloads.is_resonant(ispec, tuple(t["exps"]),
                                             t["comp"] - 1)
                       for t in doc["terms"]), f"{key}: not a normal form"


def check_failures_counted(work: Path) -> None:
    cli = run.import_cli()
    doc = work / "warmup.json"
    doc.write_bytes(run.WARMUP_DOC)
    job = workloads.Job("normalize", "warmup", ("--order", "3"))
    load = workloads.Workload(0, {}, (job,))
    good = run.run_job(cli.main, job.argv(str(doc)))
    pinned = [run.digest(good.output)]
    assert run.failed_jobs(load, [good], pinned) == []

    flipped = bytearray(good.output)
    flipped[len(flipped) // 2] ^= 1
    tampered = run.JobResult(good.seconds, 0, bytes(flipped))
    assert len(run.failed_jobs(load, [tampered], pinned)) == 1

    missing = run.run_job(cli.main, job.argv(str(work / "missing.json")))
    assert missing.exit_code == 2
    assert len(run.failed_jobs(load, [missing], pinned)) == 1

    def crash(argv):
        raise RuntimeError("boom")

    raised = run.run_job(crash, job.argv(str(doc)))
    assert raised.exit_code is None and "boom" in raised.error
    assert len(run.failed_jobs(load, [raised], pinned)) == 1


def check_centralizer_twins() -> None:
    load = workloads.build("centralizer-solve", 0)
    twins = [job for job in load.jobs if job.twin is not None]
    assert twins
    for job in twins:
        twin = load.jobs[job.twin]
        assert "--unrestricted" in job.args
        assert (twin.doc, twin.args) == (job.doc, job.args[:-1])


def check_twin_dimensions() -> None:
    restricted = workloads.Job("centralizer", "doc", ("--degree", "5"))
    unrestricted = workloads.Job("centralizer", "doc",
                                 ("--degree", "5", "--unrestricted"), twin=0)
    load = workloads.Workload(0, {}, (restricted, unrestricted))

    def failed(*results):
        return run.failed_jobs(load, [run.JobResult(0.0, code, output)
                                      for code, output in results], pinned)

    three, four = b'{"dimension": 3}', b'{"dimension": 4}'
    pinned = [run.digest(three), run.digest(four)]
    assert [k for k, _ in failed((0, three), (0, four))] == [1]
    # new output bytes do not hide the dimension check, and one fault
    # is one failed job
    (k, reason), = failed((0, three), (0, b'{"dimension": 5}'))
    assert k == 1 and "golden" in reason and "dimensions" in reason
    # a failed restricted solve does not fail its twin
    assert [k for k, _ in failed((1, b""), (0, four))] == [0]


def check_span_points(work: Path) -> None:
    covered = {p for points in spans.MUST_FIRE.values() for p in points}
    assert covered == set(spans.SPAN_POINTS), set(spans.SPAN_POINTS) - covered
    cli = run.import_cli()
    tracer = spans.Tracer()
    tracer.install()
    try:
        import dulac.centralizer
        import dulac.diagnostics
        import dulac.maps
        import dulac.normalizer
        for module, name in [
                (cli, "normalize"), (dulac.diagnostics, "normalize"),
                (cli, "diagnose"), (cli, "centralizer_basis"),
                (cli, "load_document"), (cli, "field_to_dict"),
                (dulac.centralizer, "nullspace"),
                (dulac.diagnostics, "nullspace"),
                (dulac.normalizer, "lie_bracket"),
                (dulac.diagnostics, "lie_bracket"),
                (dulac.centralizer, "lie_bracket"),
                (dulac.maps, "mat_inverse"), (dulac.normalizer, "pull_back")]:
            assert hasattr(getattr(module, name), "__wrapped__"), \
                f"{module.__name__}.{name} is not traced"
        doc = work / "warmup.json"
        doc.write_bytes(run.WARMUP_DOC)
        res = run.run_job(cli.main, ["normalize", "--input", str(doc),
                                     "--order", "3", "--json"])
        assert res.exit_code == 0
        layers = tracer.summary()
        for span in ("cli.main", "normalizer.normalize", "poly.mul"):
            assert layers[f"{span}.calls"] > 0, span
        assert layers["poly.mul.term_pairs"] > 0
        assert layers["cli.main.total_s"] >= layers["cli.main.self_s"] > 0
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")

    spans.SPAN_POINTS["maps.renamed"] = ("maps", "no_such_function")
    try:
        spans.Tracer().install()
    except AttributeError:
        pass
    else:
        raise AssertionError("a missing span point went unnoticed")
    finally:
        del spans.SPAN_POINTS["maps.renamed"]
        run.import_cli()  # drop the half-patched modules


def check_golden_complete() -> None:
    golden = json.loads(run.GOLDEN.read_text())
    for name in workloads.WORKLOADS:
        assert len(golden[name]) == workloads.VARIANTS, name
        for variant, digests in enumerate(golden[name]):
            jobs = workloads.build(name, variant).jobs
            assert len(digests) == len(jobs), (name, variant)


def main() -> int:
    work = run.BENCH / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    checks = [check_seeded_documents, check_integer_resonance,
              lambda: check_failures_counted(work), check_centralizer_twins,
              check_twin_dimensions,
              lambda: check_span_points(work), check_golden_complete]
    try:
        for check in checks:
            check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"bench self-test: {len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
