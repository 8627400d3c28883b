"""One set-up or one cold pass of a workload, in a fresh interpreter.

``run.py`` starts this script once per set-up and once per pass, so the
package's caches start empty every time, as they do for a CLI call.  The
last line of standard output is a JSON object with the measurements; the
program's own output is captured and checked against the oracles in
``gen.py`` after the clock stops.

    python3 bench/child.py setup --workload torus --seed 1 --work DIR
    python3 bench/child.py pass --workload torus --work DIR [--trace]
"""

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Workload sizes.  "full" is what the benchmark measures; "smoke" runs the
# same code paths on tiny inputs for smoke.py.
PROFILES = {
    "full": {
        "battery": {"argv": ["check"], "reports": 290},
        "torus": {"sizes": [4, 6, 8]},
        "conjugates": {"count": 64, "k": 8, "ops": 3, "torsion": 2},
    },
    "smoke": {
        "battery": {"argv": ["check", "--suite", "dimension"], "reports": 5},
        "torus": {"sizes": [2, 3]},
        "conjugates": {"count": 4, "k": 3, "ops": 3, "torsion": 1},
    },
}

TORUS_COEFF = "Z + Z/2"
TORUS_COEFF_ORDERS = [0, 2]
CONJ_COEFF = "Z + Z/4"
CONJ_COEFF_ORDERS = [0, 4]


def _import_package():
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH)
    import cwhom
    import cwhom.cli

    here = os.path.dirname(os.path.abspath(cwhom.__file__))
    if here != os.path.join(SRC, "cwhom"):
        raise SystemExit(f"cwhom imported from {here}, not from {SRC}")
    return cwhom


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# set-up: write the seeded documents and the manifest of expected results


def setup(args):
    cwhom = _import_package()
    import gen

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    t_traced = perf_counter()
    cfg = PROFILES[args.profile][args.workload]
    os.makedirs(args.work, exist_ok=True)
    docs = []  # (file name, text)
    if args.workload == "battery":
        items = [{"argv": cfg["argv"], "reports": cfg["reports"]}]
    elif args.workload == "torus":
        items = []
        for n in cfg["sizes"]:
            name = f"T{n}.json"
            docs.append((name, cwhom.dumps(gen.torus_doc(n, args.seed))))
            path = os.path.join(args.work, name)
            items.append({"argv": ["homology", path],
                          "expect": gen.torus_expected([0])})
            items.append({"argv": ["homology", path, "--cohomology", "--coeff", TORUS_COEFF],
                          "expect": gen.torus_expected(TORUS_COEFF_ORDERS)})
    else:
        rng = random.Random(args.seed)
        items = []
        for i in range(cfg["count"]):
            doc, diag = gen.conjugate_complex(cfg["k"], rng, cfg["ops"], cfg["torsion"])
            doc["name"] = f"C{i}"
            name = f"C{i:03d}.json"
            docs.append((name, cwhom.dumps(doc)))
            items.append({
                "file": name,
                "homology": gen.diagonal_homology(doc["cells"], diag),
                "cohomology": gen.diagonal_cohomology(doc["cells"], diag, CONJ_COEFF_ORDERS),
            })
    digest = hashlib.sha256()
    for name, text in docs:
        data = text.encode("utf-8")
        digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
        with open(os.path.join(args.work, name), "wb") as fh:
            fh.write(data)
    with open(os.path.join(args.work, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "items": items}, fh)
    t_end = perf_counter()
    _emit({
        "setup_s": t_end - _T_START,
        "digest": digest.hexdigest(),
        "bytes": sum(len(text) for _, text in docs),
        "trace": tracer.report(t_end - t_traced) if tracer else None,
    })


# ---------------------------------------------------------------------------
# passes


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def _groups_from_cli(text: str):
    import gen

    groups = []
    for line in text.splitlines():
        rank, torsion = gen.parse_rendered_group(line.partition(" = ")[2])
        groups.append([rank, list(torsion)])
    return groups


def _battery(cwhom, items, errors):
    """Items are the reports of one `cwhom check`; each is timed at the
    check function run_battery calls."""
    [item] = items
    verify = sys.modules["cwhom.verify"]
    durations = []

    def timed(fn):
        def run(*a, **kw):
            t0 = perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                durations.append(perf_counter() - t0)
        return run

    for name in list(vars(verify)):
        if name.startswith("check_") and callable(getattr(verify, name)):
            setattr(verify, name, timed(getattr(verify, name)))

    t0 = perf_counter()
    try:
        rc, out, err = _run_cli(cwhom.cli.main, item["argv"])
    except Exception as e:  # the program raised: every report is lost
        rc, out, err = None, "", f"{type(e).__name__}: {e}"
    wall = perf_counter() - t0

    expected = item["reports"]
    lines = out.splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    failed_reports = sum(1 for line in lines if line.startswith("FAIL "))
    failed = expected if rc != 0 else max(expected - passed, failed_reports)
    if rc != 0:
        errors.append(f"exit {rc}: {err.strip()[:300]}")
    elif failed:
        errors.append(f"{passed} PASS lines, {failed_reports} FAIL lines, expected {expected} PASS")
    if len(durations) != expected:
        errors.append(f"{len(durations)} checks timed, expected {expected}")
        failed = max(failed, 1)
    return wall, durations, expected, failed


def _torus(cwhom, items, errors):
    """Items are `cwhom homology` calls on the seeded tori."""
    results = []
    durations = []
    t0 = perf_counter()
    for item in items:
        t = perf_counter()
        try:
            results.append(_run_cli(cwhom.cli.main, item["argv"]))
        except Exception as e:
            results.append((None, "", f"{type(e).__name__}: {e}"))
        durations.append(perf_counter() - t)
    wall = perf_counter() - t0

    failed = 0
    for item, (rc, out, err) in zip(items, results):
        if rc != 0:
            failed += 1
            errors.append(f"{item['argv']}: exit {rc}: {err.strip()[:300]}")
            continue
        try:
            got = _groups_from_cli(out)
        except ValueError as e:
            got = str(e)
        if got != item["expect"]:
            failed += 1
            errors.append(f"{item['argv']}: got {got}, expected {item['expect']}")
    return wall, durations, len(items), failed


def _conjugates(cwhom, items, errors, work):
    """Items are complexes: parse the document, then homology over Z and
    cohomology over Z + Z/4 in every dimension, in this one process."""
    texts = []
    for item in items:
        with open(os.path.join(work, item["file"]), encoding="utf-8") as fh:
            texts.append(fh.read())
    z = cwhom.parse_group("Z")
    g = cwhom.parse_group(CONJ_COEFF)
    chain_group = cwhom.chain_group
    loads_complex = cwhom.loads_complex
    results = []
    durations = []
    t0 = perf_counter()
    for text in texts:
        t = perf_counter()
        try:
            x = loads_complex(text)
            dims = range(x.dim + 1)
            hom = [chain_group(x, n, z, "homology", False).group for n in dims]
            coh = [chain_group(x, n, g, "cohomology", False).group for n in dims]
            results.append((hom, coh))
        except Exception as e:
            results.append(f"{type(e).__name__}: {e}")
        durations.append(perf_counter() - t)
    wall = perf_counter() - t0

    failed = 0
    for item, res in zip(items, results):
        if isinstance(res, str):
            failed += 1
            errors.append(f"{item['file']}: {res[:300]}")
            continue
        hom, coh = ([[grp.rank, list(grp.torsion)] for grp in part] for part in res)
        if hom != item["homology"] or coh != item["cohomology"]:
            failed += 1
            errors.append(f"{item['file']}: got {hom} / {coh}, expected "
                          f"{item['homology']} / {item['cohomology']}")
    return wall, durations, len(items), failed


def run_pass(args):
    cwhom = _import_package()
    with open(os.path.join(args.work, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    errors = []
    items = manifest["items"]
    if args.workload == "battery":
        wall, durations, attempted, failed = _battery(cwhom, items, errors)
    elif args.workload == "torus":
        wall, durations, attempted, failed = _torus(cwhom, items, errors)
    else:
        wall, durations, attempted, failed = _conjugates(cwhom, items, errors, args.work)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({
        "wall_s": wall,
        "items_ms": [d * 1000.0 for d in durations],
        "rss_mb": rss_kib / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "trace": tracer.report(wall) if tracer else None,
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "pass"))
    p.add_argument("--workload", required=True, choices=("battery", "torus", "conjugates"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--profile", choices=tuple(PROFILES), default="full")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if args.mode == "setup":
        setup(args)
    else:
        run_pass(args)


if __name__ == "__main__":
    main()
