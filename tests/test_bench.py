"""The benchmark's self-test, run with the tests.

``bench/selftest.py`` checks, among other things, that every span point
of ``bench/spans.py`` resolves to a binding in the package that the
benchmark traces, such as ``dulac.maps.mat_inverse``,
``dulac.normalizer.pull_back`` or ``dulac.diagnostics.nullspace``.  A
refactor that deletes or stops importing one fails here, not only in
the benchmark's own step.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
