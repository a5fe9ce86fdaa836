"""Run the benchmark over several seeds and print every metric with its unit.

    python3 bench/report.py [--write FILE] [--against FILE]

For each workload in BENCHMARK.json it makes one --trace 0 run per seed
(seeds 0..9) and one --trace 1 run on seed 0, each in its own process, one
after another, each measuring BENCHMARK.json's run_seconds. It prints, per
workload, the median and quartiles of each end-to-end metric with its spread
(interquartile range over median) against the metric's bound, and the
per-layer metrics of the traced run.

--write stores the figures, the machine and the seed-0 per-input records as
JSON (bench/baseline.json holds the figures of the commit that added the
benchmark). --against compares this commit's seed-0 records with such a
file: terminal state and sweep count must be equal and every other value
within 1e-12, so that a faster commit is shown to compute the same thing.
The exit code is non-zero if a run fails, a spread exceeds its bound, or a
record differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
IDENTITY_TOL = 1e-12
SEEDS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} trace {trace} exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["records"] = {}
    for line in lines[:-1]:
        word, _, rest = line.partition(" ")
        if word == "machine":
            out["machine"] = json.loads(rest)
        elif word == "record":
            label, _, record = rest.partition(" ")
            out["records"][label] = json.loads(record)
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def differences(mine: dict, theirs: dict):
    """Ways in which two commits' per-input records disagree."""
    out = []
    for label in sorted(set(mine) | set(theirs)):
        a, b = mine.get(label), theirs.get(label)
        if a is None or b is None:
            out.append(f"{label}: present in only one run")
            continue
        for key in sorted(set(a) | set(b)):
            x, y = a.get(key), b.get(key)
            same = (abs(x - y) <= IDENTITY_TOL if isinstance(x, float) and isinstance(y, float)
                    else x == y)
            if not same:
                out.append(f"{label}.{key}: {x!r} vs {y!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap.add_argument("--write", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(SEEDS)]
        traced = run_once(workload, 0, seconds, 1)
        result["machine"] = runs[0]["machine"]
        entry = {"end_to_end": {}, "per_layer": {}, "records": runs[0]["records"],
                 "attempted": [r["attempted"] for r in runs]}
        print(f"== {workload}: {SEEDS} seeds x {seconds:g} s, "
              f"ops per run {entry['attempted']}")
        for name, m in runs[0]["metrics"].items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = m["unit"]
            entry["end_to_end"][name] = s
            within = s["spread"] <= bounds[name]
            ok &= within
            verdict = f"bound {bounds[name]:g} {'ok' if within else 'EXCEEDED'}"
            print(f"  {name:<40} {s['median']:<14.6g} {m['unit']:<8} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {verdict}")
        for name, m in traced["metrics"].items():
            entry["per_layer"][name] = {"value": m["value"], "unit": m["unit"]}
            print(f"  {name:<40} {m['value']:<14.6g} {m['unit']}")
        result["workloads"][workload] = entry
        if args.against:
            with open(args.against, encoding="utf-8") as fh:
                theirs = json.load(fh)["workloads"][workload]["records"]
            diffs = differences(entry["records"], theirs)
            ok &= not diffs
            for d in diffs:
                print(f"  RECORD DIFFERS {d}")
            print(f"  records {'identical' if not diffs else 'differ'} to {IDENTITY_TOL:g}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
