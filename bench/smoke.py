"""Smoke check of the benchmark itself, on tiny inputs.

    python3 bench/smoke.py

For every workload, runs bench/run.py with the "smoke" profile, untraced
and traced, and checks that the run is correct with no failed item, that
it reports exactly the metrics BENCHMARK.json names with their units,
that one seed always gives the same documents and another seed different
ones, and that two traced runs give the same counts.  Last, it checks that
the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and bench/.  Exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS

COUNT_UNITS = ("count", "bits", "bytes")


def _run(workload, seed, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--profile", "smoke"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None, {}, proc.stderr
    detail = next((json.loads(line[len("# detail "):]) for line in lines
                   if line.startswith("# detail ")), {})
    return proc.returncode, json.loads(lines[-1]), detail, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0

    def check(ok, label, why=""):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}" + ("" if ok or not why else f": {why}"))

    for workload in WORKLOADS:
        layer_metrics = digest = None
        for trace in (0, 1):
            rc, result, detail, err = _run(workload, 1, trace)
            label = f"{workload} trace={trace}"
            if result is None:
                check(False, label, f"exit {rc}: {err.strip()[-500:]}")
                continue
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label} correct, failed_ratio 0",
                  f"{result['failed']}/{result['attempted']} failed; {detail.get('errors')}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{label} reports every metric with its unit",
                  f"missing {sorted(set(wanted[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(wanted[trace]))}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result keys", str(sorted(result)))
            check(all(k in detail.get("machine", {}) for k in ("nproc", "python", "git_revision")),
                  f"{label} records the machine")
            if trace:
                layer_metrics = result["metrics"]
            else:
                digest = detail.get("document_digest")
        _, again, _, _ = _run(workload, 1, 1)
        if again is not None and layer_metrics is not None:
            counts = {k: v["value"] for k, v in layer_metrics.items() if v["unit"] in COUNT_UNITS}
            counts2 = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] in COUNT_UNITS}
            check(counts == counts2, f"{workload} counts repeat across traced runs",
                  str({k: (counts[k], counts2.get(k)) for k in counts if counts[k] != counts2.get(k)}))
        if workload != "battery":
            _, _, d1, _ = _run(workload, 1, 0)
            _, _, d2, _ = _run(workload, 2, 0)
            check(d1.get("document_digest") == digest
                  and len(d1.get("document_digest", [])) == 1,
                  f"{workload} same seed, same documents")
            check(d1.get("document_digest") != d2.get("document_digest"),
                  f"{workload} other seed, other documents")

    bare = os.path.join(ROOT, ".bench_build", f"smoke-bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, result, _, _ = _run("torus", 1, 0, root=bare)
        check(rc != 0 and result is None, "refuses to run without the sources",
              f"exit {rc}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{failures} smoke check(s) failed" if failures else "smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
