"""cwhom benchmark: cold passes over seeded workloads, checked by oracles.

    python3 bench/run.py --workload battery|torus|conjugates --seed N \
        --seconds S --trace 0|1

Every set-up and every pass runs in a fresh interpreter (bench/child.py),
one at a time: a closed loop with one client.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from bench/layers.py.  Lines before it are for people:
one line per metric, and a ``# detail`` line with the machine, the
per-pass values and the tail percentile.

A run makes a fixed number of passes, the number that fills ``--seconds``
at the speed of the code this benchmark was written against, so every
commit does the same work and per-item percentiles sit at the same rank.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")

WORKLOADS = ("battery", "torus", "conjugates")
# seconds one untraced pass took on the reference machine, interpreter
# start included
NOMINAL_PASS_S = {"battery": 1.8, "torus": 4.7, "conjugates": 5.0}
TRACE_COST = 1.2  # a traced pass against an untraced one, roughly
SETUPS = 9
MIN_PASSES = 3
DEADLINE_S = 150.0  # stop starting passes after this, to exit within 180 s
TAIL_BEYOND = 10
COUNT_SUFFIXES = (".calls", ".misses", ".cells", ".max_bits", ".bytes", ".hit_ratio")


class ChildFailed(RuntimeError):
    pass


def _child(mode, args, work, trace, timeout):
    cmd = [sys.executable, "-s", CHILD, mode, "--workload", args.workload,
           "--work", work, "--profile", args.profile]
    if mode == "setup":
        cmd += ["--seed", str(args.seed)]
    if trace:
        cmd.append("--trace")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 5.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def _tail(samples):
    """The highest percentile with TAIL_BEYOND samples above it, as
    (value, percentile, samples, samples beyond); the maximum when there
    are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n, TAIL_BEYOND


def _machine():
    rev = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = os.path.join(ROOT, ".git", name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    rev = fh.read().strip()
            else:
                with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
                    for line in fh:
                        if line.rstrip().endswith(" " + name):
                            rev = line.split()[0]
        else:
            rev = ref
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": rev,
    }


def _planned_passes(args):
    per_pass = NOMINAL_PASS_S[args.workload] * (1 + TRACE_COST if args.trace else 1)
    return max(MIN_PASSES, round(args.seconds / per_pass))


def measure(args, work, deadline):
    errors = []
    setups = []
    digests = set()
    setup_trace = None
    n_setups = 1 if args.trace else SETUPS
    for _ in range(n_setups):
        s = _child("setup", args, work, False, deadline - time.monotonic())
        setups.append(s["setup_s"])
        digests.add(s["digest"])
    if args.trace:
        s = _child("setup", args, work, True, deadline - time.monotonic())
        digests.add(s["digest"])
        setup_trace = s["trace"]
    if len(digests) != 1:
        errors.append(f"one seed gave {len(digests)} different document sets")

    # a traced run alternates untraced and traced passes
    modes = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    last = 0.0
    for i in range(_planned_passes(args)):
        if i and time.monotonic() + 2 * last > deadline:
            errors.append(f"deadline reached after {i} rounds of passes")
            break
        t0 = time.monotonic()
        for traced in modes:
            p = _child("pass", args, work, traced, deadline - time.monotonic() + 20)
            passes[traced].append(p)
            errors.extend(p["errors"])
        last = time.monotonic() - t0

    every = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    plain = passes[False]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "profile": args.profile,
        "machine": _machine(),
        "setup_s": setups, "document_digest": sorted(digests),
        "passes": len(plain), "traced_passes": len(passes[True]),
        "wall_s": [p["wall_s"] for p in plain],
        "peak_rss_mb": [p["rss_mb"] for p in plain],
        "failed_ratio": failed / attempted if attempted else 1.0,
    }
    if not args.trace:
        # Percentiles are taken per pass and the median over passes
        # reported: the item mix of a pass repeats, so pooling would put
        # them at the largest of a few repeats of one item.  A torus pass
        # has six items of very different sizes, too few for a tail, so its
        # tail pools all passes.
        if all(len(p["items_ms"]) > TAIL_BEYOND for p in plain):
            tails = [_tail(p["items_ms"]) for p in plain]
            tail = statistics.median(t[0] for t in tails)
            _, pct, n, beyond = tails[0]
            scope = "per pass"
        else:
            tail, pct, n, beyond = _tail([ms for p in plain for ms in p["items_ms"]])
            scope = "pooled"
        detail["item_ms_tail"] = {"percentile": pct, "samples": n, "beyond": beyond, "scope": scope}
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(detail["wall_s"]), "s"),
            "item_ms_p50": (statistics.median(statistics.median(p["items_ms"]) for p in plain), "ms"),
            "item_ms_tail": (tail, "ms"),
            "peak_rss_mb": (statistics.median(detail["peak_rss_mb"]), "MB"),
        }
    else:
        metrics, repeat_errors = _layer_metrics(passes[True], setup_trace, plain)
        errors.extend(repeat_errors)
        detail["absent_layers"] = sorted(set(
            name for p in passes[True] for name in p["trace"].get("absent", [])))
    detail["errors"] = errors[:10]
    correct = failed == 0 and not errors and attempted > 0
    return correct, attempted, failed, metrics, detail


def _layer_metrics(traced, setup_trace, plain):
    """Counts must repeat exactly across traced passes; times are medians.
    The traced set-up's figures (document writing) are added to the
    passes'."""
    errors = []
    keys = traced[0]["trace"]["metrics"].keys()
    metrics = {}
    for key in keys:
        values = [p["trace"]["metrics"][key] for p in traced]
        extra = 0 if key.startswith("pass.") else setup_trace["metrics"].get(key, 0)
        if key.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                errors.append(f"{key} differs between cold passes: {values}")
            if key.endswith(".hit_ratio"):
                metrics[key] = (values[0], "ratio")
            elif key.endswith(".max_bits"):
                metrics[key] = (max(values[0], extra), "bits")
            elif key.endswith(".bytes"):
                metrics[key] = (values[0] + extra, "bytes")
            else:
                metrics[key] = (values[0] + extra, "count")
        else:
            metrics[key] = (statistics.median(values) + extra, "s")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead"] = (traced_wall / statistics.median(p["wall_s"] for p in plain), "ratio")
    return metrics, errors


def main(argv=None):
    p = argparse.ArgumentParser(description="cwhom benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for bench/smoke.py")
    args = p.parse_args(argv)
    args.trace = bool(args.trace)
    # on SIGTERM, unwind: subprocess.run kills the running child, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "cwhom", "__init__.py")):
        print(f"no cwhom sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    start = time.monotonic()
    work = os.path.join(ROOT, ".bench_build", f"cwhom-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        correct, attempted, failed, metrics, detail = measure(args, work, start + DEADLINE_S)
    except ChildFailed as e:
        print(f"benchmark child failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["elapsed_s"] = time.monotonic() - start
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
