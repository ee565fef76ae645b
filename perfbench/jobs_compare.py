"""One-off comparison of ``cvrate sweep --jobs 1`` against ``--jobs 2``.

The benchmark runs every sweep with ``--jobs 1``. This script records what
the process pool buys on the same machine, on a sweep-opt config scaled up
to the size of ``configs/distance_sweep.ini`` (40 distances x 3 trust cases
= 120 optimized rows). Runs alternate between the two settings; the script
prints the median and quartiles of each and checks that both write the
same CSV bytes. Times are wall clock here, because ``--jobs 2`` does its
work in child processes.

    python3 perfbench/jobs_compare.py --seed 1 --repeats 10
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import time

from run import WORKDIR, Cvrate
from workloads import SweepOpt


class DistanceSweep(SweepOpt):
    points = 40
    n_inputs = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=10, help="runs of each setting")
    args = parser.parse_args()

    cv = Cvrate()
    workdir = WORKDIR / f"jobs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sweep = DistanceSweep(cv, args.seed, str(workdir))
        item = sweep.inputs[0]
        times: dict[int, list[float]] = {1: [], 2: []}
        outputs: dict[int, set[bytes]] = {1: set(), 2: set()}
        for rep in range(args.repeats):
            for jobs in ((1, 2) if rep % 2 == 0 else (2, 1)):
                argv = ["sweep", "--config", item["config"], "--out", sweep.out, "--jobs", str(jobs)]
                t0 = time.perf_counter()
                rc = cv.cli.main(argv)
                times[jobs].append(time.perf_counter() - t0)
                outputs[jobs].add(sweep.check(item, rc)[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    summary = {}
    for jobs, values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[f"jobs_{jobs}"] = {"median_s": median, "q1_s": q1, "q3_s": q3, "runs": len(values)}
        print(f"--jobs {jobs}: median {median:.3f} s, quartiles {q1:.3f}-{q3:.3f} s, "
              f"{len(values)} runs of {item['rows']} rows")
    same = len(outputs[1] | outputs[2]) == 1
    print(f"identical CSV from both settings: {same}; nproc={os.cpu_count()}")
    print(json.dumps({"identical_output": same, **summary}))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
