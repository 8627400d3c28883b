"""Run-to-run spread of the end-to-end metrics, for checking the bounds.

    python3 bench/spread.py --workload torus --seeds 1-10 [--out FILE]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median and the interquartile range as a share of
the median (quartiles as ``statistics.quantiles(values, n=4)`` gives
them), next to the metric's bound in BENCHMARK.json and a third of it.
With ``--out`` the per-run values and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="a range such as 1-10")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = next((json.loads(line[len("# detail "):]) for line in lines
                       if line.startswith("# detail ")), {})
        runs.append({"seed": seed, "result": result, "detail": detail})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)

    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["result"]["metrics"]:
            med, iqr = spread([r["result"]["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            summary[name] = {"median": med, "iqr_share": iqr, "bound": bound}
            ok = "" if bound is None else ("ok" if iqr < bound / 3 else "WIDE")
            print(f"{args.workload} {name}: median {med:.6g}  spread {iqr:.4f}  "
                  f"bound {bound}  third {bound / 3 if bound else 0:.4f}  {ok}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
