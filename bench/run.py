"""End-to-end benchmark of the dulac command line on seeded field documents.

    python3 bench/run.py --workload deep-diagnose --seed 0 --seconds 30 --trace 0

Runs every job of one workload through ``dulac.cli.main`` in this process,
pass after pass, until less than half a pass of ``--seconds`` is left.  Each
job's output bytes are checked against golden sha256 digests pinned in
``golden.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print each metric with its unit.  Times are scaled by machine speed
(see speed.py).

With ``--trace 0`` the metrics are end to end (wall_s, job_p50_ms,
job_p90_ms, peak_rss_mb, setup_s).  With ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the metrics are
per layer (see spans.py), each the median over the traced passes.

dulac is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 5
WARMUP_DOC = (b'{"dim": 2, "order": 3, "eigenvalues": ["1", "-2"], '
              b'"terms": [{"coeff": "1", "exps": [1, 1], "comp": 1}]}\n')


def import_cli():
    """Import ``dulac.cli`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules
                 if n == "dulac" or n.startswith("dulac.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("dulac.cli")
    except ImportError as exc:
        sys.exit(f"bench: cannot import dulac from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent != SRC / "dulac":
        sys.exit(f"bench: dulac was imported from {cli.__file__}, "
                 f"not from {SRC}")
    return cli


@dataclass
class JobResult:
    seconds: float             # raw, without the speed probes inside
    exit_code: Optional[int]   # None when the call raised
    output: bytes
    error: str = ""
    probes: List[float] = field(default_factory=list)


def run_job(main: Callable, argv: List[str]) -> JobResult:
    """One CLI call with its output captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            speed.Sampler() as sampler:
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # sys.exit(None) means success
            code = (0 if exc.code is None
                    else exc.code if isinstance(exc.code, int) else 1)
        except Exception as exc:  # a crash counts as a failed job
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start - sampler.spent
    return JobResult(seconds, code, out.getvalue().encode("utf-8"),
                     err.getvalue(), sampler.samples)


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def failed_jobs(load: workloads.Workload, results: List[JobResult],
                golden: List[str]) -> List[Tuple[int, str]]:
    """(job index, reason) for every job of one pass that failed."""
    failed = []
    for k, (job, res) in enumerate(zip(load.jobs, results)):
        if res.exit_code != 0:
            reason = ("raised" if res.exit_code is None
                      else f"exit code {res.exit_code}")
            failed.append((k, f"{reason}: {res.error.strip()[:200]}"))
            continue
        reasons = []
        if digest(res.output) != golden[k]:
            reasons.append("output differs from the golden digest")
        if job.twin is not None:
            # The package's own oracle, checked whatever the digests say.
            dims = [centralizer_dimension(results[i]) for i in (job.twin, k)]
            if None not in dims and dims[0] != dims[1]:
                reasons.append(f"restricted and unrestricted centralizer "
                               f"dimensions differ: {dims}")
        if reasons:
            failed.append((k, "; ".join(reasons)))
    return failed


def centralizer_dimension(res: JobResult) -> Optional[int]:
    """The basis dimension a successful centralizer job printed, if any."""
    if res.exit_code != 0:
        return None
    try:
        return json.loads(res.output)["dimension"]
    except (ValueError, KeyError, TypeError):
        return None


@dataclass
class Setup:
    cli: object   # dulac.cli; main is looked up per job so tracing sees it
    load: workloads.Workload
    paths: Dict[str, str]
    golden: List[str]


def write_docs(load: workloads.Workload, work: Path) -> Dict[str, str]:
    """Write the workload's documents into a fresh ``work``; their paths."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = {}
    for key, data in load.docs.items():
        path = work / f"{key}.json"
        path.write_bytes(data)
        paths[key] = str(path)
    return paths


def set_up(name: str, seed: int, work: Path) -> Setup:
    """Import, generate and write the documents, load digests, warm up."""
    cli = import_cli()
    load = workloads.build(name, seed)
    paths = write_docs(load, work)
    golden = json.loads(GOLDEN.read_text())[name][load.variant]
    if len(golden) != len(load.jobs):
        sys.exit(f"bench: {GOLDEN.name} holds {len(golden)} digests for "
                 f"{name} variant {load.variant}, the workload has "
                 f"{len(load.jobs)} jobs")
    warmup = work / "warmup.json"
    warmup.write_bytes(WARMUP_DOC)
    res = run_job(cli.main, ["normalize", "--input", str(warmup),
                             "--order", "3", "--json"])
    if res.exit_code != 0:
        sys.exit(f"bench: warm-up job failed: {res.error}")
    return Setup(cli, load, paths, golden)


@dataclass
class Pass:
    results: List[JobResult]
    probes: List[float]   # one before each job and one after the last
    failed: List[Tuple[int, str]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)

    def latencies(self) -> List[float]:
        """Each job's seconds at probe speed, by the probes around and in it."""
        return [r.seconds * speed.PROBE_SECONDS
                / statistics.mean([before, *r.probes, after])
                for r, before, after in zip(self.results, self.probes,
                                            self.probes[1:])]

    @property
    def wall(self) -> float:
        return sum(self.latencies())

    @property
    def scale(self) -> float:
        return self.wall / sum(r.seconds for r in self.results)


def run_pass(setup: Setup, tracer: Optional[spans.Tracer] = None) -> Pass:
    if tracer is not None:
        tracer.reset()
    results: List[JobResult] = []
    probes = [speed.probe()]
    for job in setup.load.jobs:
        results.append(run_job(setup.cli.main, job.argv(setup.paths[job.doc])))
        probes.append(speed.probe())
    done = Pass(results, probes)
    if tracer is not None:
        done.layers = {key: value * done.scale if key.endswith("_s")
                       else value for key, value in tracer.summary().items()}
    done.failed = failed_jobs(setup.load, results, setup.golden)
    return done


def run_for(seconds: float, one_pass: Callable[[], Pass]) -> List[Pass]:
    """Passes until less than half a pass of time is left; at least one."""
    start = time.perf_counter()
    passes = [one_pass()]
    while True:
        elapsed = time.perf_counter() - start
        if seconds - elapsed < elapsed / len(passes) / 2:
            return passes
        passes.append(one_pass())


_VARIABLE = re.compile(r"\*?x\d+(\^\d+)?")


def output_stats(output: bytes) -> Tuple[int, int]:
    """(terms, largest numerator or denominator in bits) of one report."""
    doc = json.loads(output)
    coeffs: List[str] = []

    def walk(node) -> None:
        if isinstance(node, dict):
            if "coeff" in node:
                coeffs.append(node["coeff"])
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(doc)
    if isinstance(doc.get("normal_form"), list):  # diagnose prints polys
        for poly in doc["normal_form"]:
            if poly != "0":
                coeffs += [_VARIABLE.sub("", piece)
                           for piece in poly.split(" + ")]
    bits = max((int(n).bit_length() for c in coeffs
                for n in re.findall(r"\d+", c)), default=0)
    return len(coeffs), bits


def end_to_end(passes: List[Pass], setups: List[float]) -> Dict[str, tuple]:
    # Each job's median over the passes, so that a job's outliers cannot
    # decide a percentile that falls between two jobs.
    latencies = [statistics.median(job) for job in
                 zip(*(p.latencies() for p in passes))]
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(
            latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(name: str, untraced: List[Pass],
              traced: List[Pass]) -> Dict[str, tuple]:
    layers = {key: statistics.median(p.layers[key] for p in traced)
              for key in spans.metric_names()}
    problems = spans.check_reach(name, layers)
    if problems:
        sys.exit(f"bench: trace self-check failed on {name}: "
                 + "; ".join(problems))
    stats = [output_stats(r.output) for r in traced[0].results]
    layers["scalars.coeff_bits_max"] = max(bits for _, bits in stats)
    layers["scalars.output_terms"] = sum(terms for terms, _ in stats)
    layers["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1)
    units = {"calls": "count", "total_s": "s", "self_s": "s",
             "term_pairs": "count", "pairs_useful_frac": "ratio",
             "rows": "count", "cols": "count", "coeff_bits_max": "bits",
             "output_terms": "count", "overhead_frac": "ratio"}
    return {key: (value, units[key.rsplit(".", 1)[1]])
            for key, value in layers.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            setup = set_up(args.workload, args.seed, work)
            setups.append((time.perf_counter() - start) * speed.PROBE_SECONDS
                          / statistics.mean(speed.probe() for _ in range(5)))
        if args.trace:
            untraced = run_for(args.seconds / 2, lambda: run_pass(setup))
            tracer = spans.Tracer()
            tracer.install()
            traced = run_for(args.seconds / 2,
                             lambda: run_pass(setup, tracer))
            passes = untraced + traced
            metrics = per_layer(args.workload, untraced, traced)
        else:
            passes = run_for(args.seconds, lambda: run_pass(setup))
            metrics = end_to_end(passes, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.results) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for job, reason in sorted({f for p in passes for f in p.failed}):
        print(f"FAILED job {job}: {reason}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed} (input variant "
          f"{setup.load.variant}), {len(setup.load.jobs)} jobs per pass, "
          f"{len(passes)} passes")
    print(f"failed_frac {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} jobs)")
    print(f"times scaled by {statistics.median(p.scale for p in passes):.4f}"
          f" to {speed.PROBE_SECONDS * 1e3:g} ms per probe")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
