"""Benchmark of the ctxradius daemon, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: closed loops over loopback UDP to `ctxradius serve`, from one
single-threaded generator with 16 requests outstanding.

  busy-fresh      first logins only: the dedup, session and challenge tables
                  grow for the whole phase.
  busy-returning  users hold sessions from an untimed warm-up and every
                  request is sent twice, so half the datagrams are answered
                  from the dedup cache.

A run times ten phases of --seconds/10 (bench.PHASES), each on a freshly
started daemon, and reports medians over the phases.  The generator and
the daemon are pinned to different CPUs (bench.split_cpus).

With --trace 0 the last line of stdout is a JSON record of the end-to-end
metrics; with --trace 1 the daemon runs under launcher.py, which wraps the
layers' public functions, and the record holds the per-layer metrics.
Lines before it start with '#' and give each figure with its sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

SOURCE = Path.cwd() / "src"
WORK = Path.cwd() / ".perfbench-work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "ctxradius" / "__init__.py").is_file():
        print(f"perfbench: no ctxradius source under {SOURCE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(bench.WORKLOADS))}")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(bench.report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
