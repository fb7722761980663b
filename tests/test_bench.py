"""The benchmark's self-test and span reach, run with the tests.

``bench/selftest.py`` checks, among other things, that every span point
of ``bench/spans.py`` resolves to a binding in the package that the
benchmark traces, such as ``dulac.maps.mat_inverse``,
``dulac.normalizer.pull_back`` or ``dulac.diagnostics.nullspace``.  A
refactor that deletes or stops importing one fails here, not only in
the benchmark's own step.

A short traced run of each workload checks that every span its
``MUST_FIRE`` entry names is reached, since ``bench/run.py --trace 1``
exits 1 when one never fires, and that every output matches its pinned
digest.  A change that silences a pinned span, such as skipping the
Gauss-Jordan pass when L = I, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deep-diagnose", "batch-normalize", "centralizer-solve")


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_every_pinned_span(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
