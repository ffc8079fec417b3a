#!/usr/bin/env python3
"""Steadiness check: run one workload once per seed and print, for each
metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --workload ingest_mix --seeds 1-10 [--trace 0] [--seconds 30]

Run from the repository root. Raw result lines are appended to
.bench_build/steady-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(f".bench_build/steady-{args.workload}.jsonl", "a")
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        line = out.strip().splitlines()[-1]
        log.write(line + "\n")
        res = json.loads(line)
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {line}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        line = f"{name:36s} median {med:.5g}"
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            line += f"  spread {spread:.3f}"
            if bounds.get(name):
                line += f"  bound {bounds[name]}  {'ok' if spread < bounds[name] / 3 else 'WIDE'}"
        print(line)


if __name__ == "__main__":
    main()
