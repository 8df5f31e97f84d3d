#!/usr/bin/env python3
"""Repeat-run stability check for the perfbench benchmark.

Runs the benchmark once per seed on each named workload, then prints for
every metric the median of its values and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. Run it from the
repository root:

    python3 perfbench/spread.py --workloads clean megapop --seeds 1 2 3 4 5

With --trace 1 it reports the per-layer metrics instead (they carry no
bound). The exit code is 1 when any run is incorrect or fails, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    status = 0
    for wl in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(lines[-1])
            ok = res["correct"] and res["failed"] == 0
            checks = [l for l in lines if l.startswith("CHECK FAILED")]
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {' '.join(checks)}", flush=True)
            if not ok:
                status = 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            line = f"  {wl:<11} {name:<34} median {med:<14.6g}"
            if len(vs) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                share = (q3 - q1) / abs(med)
                line += f" spread {share:8.4f}"
                bound = bounds.get(name)
                if bound:
                    line += f"  bound {bound:.3f}  ({share / bound:5.2f} of bound)"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
