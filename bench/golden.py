"""Pin the golden output digests of every benchmark job.

    python3 bench/golden.py

Runs each job of each input variant once and writes the sha256 of its
output bytes to golden.json, keyed by workload and variant.  Run it only
at a commit whose outputs are trusted; the benchmark counts every later
difference as a failed job.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def pin(name: str, variant: int, work) -> list:
    cli = run.import_cli()
    load = workloads.build(name, variant)
    paths = run.write_docs(load, work)
    results = [run.run_job(cli.main, job.argv(paths[job.doc]))
               for job in load.jobs]
    digests = [run.digest(r.output) for r in results]
    failed = run.failed_jobs(load, results, digests)
    if failed:
        sys.exit(f"{name} variant {variant}: {failed}")
    return digests


def main() -> int:
    golden = {}
    work = run.BENCH / ".work" / f"golden-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            golden[name] = [pin(name, v, work)
                            for v in range(workloads.VARIANTS)]
            print(f"{name}: {workloads.VARIANTS} variants pinned", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
