import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwhom
from cwhom.chainmaps import identity_map, sphere_self_map
from cwhom.cli import _run, build_parser, main
from cwhom.complexes import zoo
from cwhom.documents import complex_to_doc, dumps, map_to_doc
from test_documents import sample_complex_documents, sample_map_documents, spoiled_documents


@pytest.fixture
def torus_file(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(dumps(complex_to_doc(zoo("torus"))))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_lines(capsys, torus_file):
    code, out, err = run(capsys, "homology", torus_file)
    assert code == 0
    assert out.splitlines() == ["H_0 = Z", "H_1 = Z^2", "H_2 = Z"]
    assert err == ""


def test_cohomology_with_coefficients(capsys, torus_file):
    code, out, _ = run(capsys, "homology", torus_file, "--cohomology", "--coeff", "Z/2")
    assert code == 0
    assert out.splitlines() == ["H^0 = Z/2", "H^1 = Z/2 + Z/2", "H^2 = Z/2"]


def test_single_dimension_and_reduced(capsys, torus_file):
    code, out, _ = run(capsys, "homology", torus_file, "--dim", "0", "--reduced")
    assert (code, out) == (0, "H_0 = 0\n")


def test_moore_example(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    code, _, _ = run(capsys, "zoo", "moore", "3", "2", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "homology", str(out_path), "--cohomology")
    assert code == 0
    assert "H^3 = Z/3" in out.splitlines()


def test_euler(capsys, torus_file):
    assert run(capsys, "euler", torus_file)[:2] == (0, "0\n")


def test_validate_ok(capsys, torus_file):
    code, out, err = run(capsys, "validate", torus_file)
    assert code == 0 and "valid" in out


def test_validate_semantic_failure(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(dumps({"cells": [2, 1], "boundaries": {"1": [[1], [1]]}}))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 1
    assert "sum" in err and out == ""


def test_schema_failure_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"cells": "nope"}')
    code, _, err = run(capsys, "homology", str(p))
    assert code == 2 and "cells" in err
    p.write_text("not json")
    assert run(capsys, "validate", str(p))[0] == 2


def test_usage_failure_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology"])
    capsys.readouterr()
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 3


def test_susp_quotient_wedge_pipeline(capsys, torus_file, tmp_path):
    s = tmp_path / "susp.json"
    code, _, _ = run(capsys, "susp", torus_file, "-o", str(s))
    assert code == 0
    code, out, _ = run(capsys, "homology", str(s), "--dim", "2")
    assert (code, out) == (0, "H_2 = Z^2\n")

    q = tmp_path / "q.json"
    assert run(capsys, "quotient", torus_file, "--below", "1", "-o", str(q))[0] == 0
    code, out, _ = run(capsys, "homology", str(q), "--dim", "2")
    assert out == "H_2 = Z\n"

    w = tmp_path / "w.json"
    assert run(capsys, "wedge", torus_file, torus_file, "-o", str(w))[0] == 0
    code, out, _ = run(capsys, "homology", str(w), "--dim", "1")
    assert out == "H_1 = Z^4\n"


def test_cone_and_degree(capsys, tmp_path):
    m = tmp_path / "map.json"
    m.write_text(dumps(map_to_doc(sphere_self_map(1, 4))))
    code, out, _ = run(capsys, "degree", str(m))
    assert (code, out) == (0, "4\n")
    c = tmp_path / "cone.json"
    assert run(capsys, "cone", str(m), "-o", str(c))[0] == 0
    code, out, _ = run(capsys, "homology", str(c), "--dim", "1")
    assert out == "H_1 = Z/4\n"


def test_degree_rejects_non_sphere(capsys, tmp_path, torus_file):
    m = tmp_path / "map.json"
    doc = map_to_doc(identity_map(zoo("torus")))
    m.write_text(dumps(doc))
    code, out, err = run(capsys, "degree", str(m))
    assert code == 1 and err


def test_check_file_modes(capsys, torus_file, tmp_path):
    code, out, _ = run(capsys, "check", torus_file, "--coeff", "Z/2")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())

    m = tmp_path / "map.json"
    m.write_text(dumps(map_to_doc(sphere_self_map(1, 2))))
    code, out, _ = run(capsys, "check", str(m), "--range", "0..2")
    assert code == 0 and "les-exactness" in out


def _edge_map_doc(f1):
    # the edge 0 -> 1 with its ends swapped at level 0, which is not
    # pointed; a chain map exactly when level 1 is -1
    edge = {"cells": [2, 1], "boundaries": {"1": [[1], [-1]]}}
    return {"source": edge, "target": edge, "maps": {"0": [[0, 1], [1, 0]], "1": [[f1]]}}


def test_check_refuses_other_map_violations_before_pointedness(capsys, tmp_path):
    p = tmp_path / "map.json"
    chain = "level 1: chain condition B' @ F != F @ B"
    pointed = "level 0: basepoint column is not the target basepoint unit vector"
    p.write_text(dumps(_edge_map_doc(1)))
    assert run(capsys, "check", str(p)) == (1, "", f"invalid chain map: {chain}\n")
    assert run(capsys, "validate", str(p)) == (1, "", f"{chain}\n{pointed}\n")
    p.write_text(dumps(_edge_map_doc(-1)))
    assert run(capsys, "check", str(p)) == (1, "", f"invalid chain map: {pointed}\n")
    assert run(capsys, "validate", str(p)) == (1, "", f"{pointed}\n")


@pytest.mark.parametrize("command", ["check", "validate"])
def test_document_is_parsed_once(capsys, monkeypatch, tmp_path, command):
    real = json.loads
    calls = []
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or real(*a, **k))
    p = tmp_path / "doc.json"
    for doc in (complex_to_doc(zoo("torus")), map_to_doc(identity_map(zoo("torus")))):
        p.write_text(dumps(doc))
        calls.clear()
        code, out, err = run(capsys, command, str(p))
        assert (code, err, len(calls)) == (0, "", 1)
        assert out.startswith("PASS" if command == "check" else "valid ")


def test_check_suite_all(capsys):
    code, out, err = run(capsys, "check", "--suite", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(l.startswith("PASS") for l in lines)
    assert err == ""


def test_zoo_bad_params(capsys):
    code, _, err = run(capsys, "zoo", "moore", "1", "1")
    assert code == 1 and "moore" in err


def test_output_is_canonical(capsys):
    code, out, _ = run(capsys, "zoo", "klein")
    doc = json.loads(out)
    assert dumps(doc) == out


@pytest.mark.parametrize("text", ['{"cells": [1], ', "[" * 100_000, '{"cells": ' + "[" * 100_000])
@pytest.mark.parametrize("command", ["check", "homology", "validate"])
def test_malformed_stdin_exits_2(capsys, monkeypatch, command, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, command, "-")
    assert (code, out) == (2, "")
    assert err.startswith("$: not valid JSON")


@pytest.mark.parametrize("key", ["02", "٢", "²"])
def test_noncanonical_dimension_key_exits_2(capsys, tmp_path, key):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"cells": [1, 1, 1], "boundaries": {key: [[2]]}}))
    code, out, err = run(capsys, "homology", str(p))
    assert (code, out) == (2, "")
    assert "boundaries" in err


@pytest.mark.parametrize("command", ["check", "homology", "validate"])
def test_huge_integer_literal_exits_2(capsys, tmp_path, command):
    p = tmp_path / "x.json"
    p.write_text('{"cells": [1, 1], "boundaries": {"1": [[' + "9" * 4301 + "]]}}")
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err.startswith("$: not valid JSON")


@pytest.mark.parametrize("coeff", ["Z/٢", "Z/２", "(Z/٣)^٢", "Z/" + "7" * 4301, "Z^" + "1" * 4301])
def test_bad_coefficient_digits_exit_3(capsys, torus_file, coeff):
    with pytest.raises(SystemExit) as exc:
        main(["homology", torus_file, "--coeff", coeff])
    _, err = capsys.readouterr()
    assert exc.value.code == 3
    assert "--coeff" in err and "invalid" not in err


def test_check_battery_bytes(capsys):
    # the full battery's stdout, pinned byte for byte
    want = (Path(__file__).parent / "data" / "check_battery.txt").read_bytes()
    code, out, err = run(capsys, "check")
    assert (code, err) == (0, "")
    assert out.encode() == want


def _decimal(n):
    digits = []
    while True:
        n, r = divmod(n, 10)
        digits.append("0123456789"[r])
        if not n:
            return "".join(reversed(digits))


def test_huge_torsion_order_prints_exactly(capsys, tmp_path):
    # H_1 = Z/lcm(a, b) has about 7 000 digits, past Python's default
    # limit on int-to-string conversion; the literals stay below it
    a, b = 10 ** 4000 + 1, 10 ** 3000 + 3
    p = tmp_path / "x.json"
    p.write_text('{"cells": [2, 2, 2], "boundaries": {"1": [[0, 0], [0, 0]], '
                 f'"2": [[{"1" + "0" * 3999 + "1"}, 0], [0, {"1" + "0" * 2999 + "3"}]]}}}}')
    g = gcd(a, b)
    h1 = " + ".join(f"Z/{_decimal(d)}" for d in (g, a * b // g) if d > 1)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "homology", str(p))
    assert (code, err) == (0, "")
    assert out == f"H_0 = Z^2\nH_1 = {h1}\nH_2 = 0\n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_homology_prints_no_partial_table(capsys, torus_file, monkeypatch):
    import cwhom.cli as cli

    real = cli.chain_group

    def failing_at_2(x, n, *args):
        if n == 2:
            raise ValueError("boom")
        return real(x, n, *args)

    monkeypatch.setattr(cli, "chain_group", failing_at_2)
    code, out, err = run(capsys, "homology", torus_file)
    assert (code, out) == (1, "")
    assert err == "boom\n"


@pytest.mark.parametrize("coeff,position", [("(Z/2)^1000001", 0), ("Z^1000001 + Z", 0),
                                            ("Z^999999 + (Z/2)^2", 11)])
def test_coefficient_generator_ceiling_exits_3(capsys, torus_file, coeff, position):
    with pytest.raises(SystemExit) as exc:
        main(["homology", torus_file, "--cohomology", "--coeff", coeff])
    _, err = capsys.readouterr()
    assert exc.value.code == 3
    assert f"--coeff: more than 1000000 generators (at position {position})" in err


def test_reader_leaving_early_exits_1_quietly():
    # `cwhom check | head -1`: the reader takes one line and closes the
    # pipe.  A 4 KiB pipe holds less than the battery's ~11 kB report, so
    # the writer is certain to hit the closed end.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a pipe smaller than the output")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cwhom.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    with subprocess.Popen([sys.executable, "-m", "cwhom.cli", "check"], stdout=w,
                          stderr=subprocess.PIPE, env=env) as proc:
        os.close(w)
        with open(r, "rb") as reader:
            assert reader.readline().startswith(b"PASS ")
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    assert err == b""


@pytest.mark.parametrize("doc", [
    {"cells": [1, 2, 10**30], "basepoint": 0},
    {"cells": [10**30]},
    {"vertices": 10**30},
])
@pytest.mark.parametrize("command", ["check", "homology", "validate"])
def test_oversized_cell_count_exits_2(capsys, tmp_path, command, doc):
    p = tmp_path / "x.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert "at most" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


_LARGEST_COUNT = isqrt(sys.maxsize)


_HUGE_COMPLEX = {"cells": [_LARGEST_COUNT, _LARGEST_COUNT]}
_HUGE_MAP = {"source": {"cells": [_LARGEST_COUNT]}, "target": {"cells": [_LARGEST_COUNT]}, "maps": {}}


@pytest.mark.parametrize("command, doc", [
    ("homology", _HUGE_COMPLEX), ("validate", _HUGE_COMPLEX), ("check", _HUGE_COMPLEX),
    ("validate", _HUGE_MAP), ("check", _HUGE_MAP),
])
def test_counts_at_the_bound_run_out_of_memory_quietly(capsys, tmp_path, command, doc):
    # the counts pass the document bound, but the omitted block of their
    # product is far larger than any memory: the interpreter refuses it
    # before allocating, and that is a semantic failure
    p = tmp_path / "x.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (1, "")
    assert err.startswith("out of memory") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, want", [
    (["zoo", "sphere", "-1"], (1, "", "sphere dimension must be >= 0\n")),
    (["zoo", "moore", "1", "1"], (1, "", "moore requires q >= 2 and n >= 1\n")),
    (["quotient", "{torus}", "--below", "5"], (1, "", "quotient dimension 5 out of range 0..1\n")),
    (["degree", "{torus_map}"], (1, "", "reduced H_1 = Z^2\n")),
    (["homology", "{invalid}"], (1, "", "dimension 2: chain condition B_1 @ B_2 != 0\n")),
])
def test_semantic_errors_share_one_path(capsys, tmp_path, argv, want):
    # every semantic failure prints its message alone on stderr and exits 1
    docs = {
        "torus": complex_to_doc(zoo("torus")),
        "torus_map": map_to_doc(identity_map(zoo("torus"))),
        "invalid": {"cells": [2, 1, 1], "boundaries": {"1": [[1], [-1]], "2": [[1]]}},
    }
    paths = {}
    for key, doc in docs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(dumps(doc))
    assert run(capsys, *(a.format(**paths) for a in argv)) == want


def _grid_torus(k):
    """The k x k square-grid torus from its edge presentation: edge
    2v + 1 runs from v = (i, j) to (i + 1, j), edge 2v + 2 to (i, j + 1)."""
    from cwhom.complexes import EdgePresentation, from_presentation

    def v(i, j):
        return (i % k) * k + j % k
    edges = [e for i in range(k) for j in range(k) for e in ((v(i, j), v(i + 1, j)), (v(i, j), v(i, j + 1)))]
    faces = [(2 * v(i, j) + 1, 2 * v(i + 1, j) + 2, -(2 * v(i, j + 1) + 1), -(2 * v(i, j) + 2))
             for i in range(k) for j in range(k)]
    return from_presentation(EdgePresentation(k * k, tuple(edges), tuple(faces)))


def test_les_check_validates_the_given_map_once_and_sparsely(capsys, monkeypatch, tmp_path):
    # the cone's copy of the map, its inclusion and its projection are
    # not validated again, and the chain condition builds no dense product
    import cwhom.chainmaps as chainmaps
    from cwhom.chainmaps import inclusion_map
    from cwhom.complexes import skeleton
    from cwhom.intmat import IntMatrix
    t = _grid_torus(4)
    p = tmp_path / "incl.json"
    p.write_text(dumps(map_to_doc(inclusion_map(skeleton(t, 1), t))))
    validated, inside, dense = [], [], []
    real_validate, real_matmul = chainmaps.validate_map, IntMatrix.__matmul__

    def validate(f):
        validated.append(f)
        inside.append(f)
        try:
            return real_validate(f)
        finally:
            inside.pop()

    def matmul(a, b):
        if inside:
            dense.append((a.shape, b.shape))
        return real_matmul(a, b)

    monkeypatch.setattr(chainmaps, "validate_map", validate)
    monkeypatch.setattr(IntMatrix, "__matmul__", matmul)
    got = run(capsys, "check", str(p), "--suite", "les", "--coeff", "Z/2", "--range", "0..0")
    assert got == (0, "PASS les-exactness incl G=Z/2 dims=0..0\n", "")
    assert (len(validated), dense) == (1, [])


@pytest.mark.parametrize("argv, message", [
    (["sphere", str(10**30)], "sphere dimension must be <= 100000\n"),
    (["rp", str(10**30)], "rp dimension must be <= 100000\n"),
    (["cp", str(10**30)], "cp dimension must be <= 100000\n"),
    (["surface", str(10**30)], "surface genus must be <= 100000\n"),
    (["moore", "2", str(10**30)], "moore dimension must be <= 100000\n"),
    (["sphere", "100001"], "sphere dimension must be <= 100000\n"),
])
def test_zoo_sizes_above_the_ceiling_exit_1(capsys, argv, message):
    assert run(capsys, "zoo", *argv) == (1, "", message)


def test_check_range_above_the_ceiling_exits_3(capsys, torus_file):
    # a range of more than 100 001 dimensions is a usage error, refused
    # before any check runs, like a range with a > b
    with pytest.raises(SystemExit) as exc:
        main(["check", torus_file, "--range", "0..99999999999"])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert err.splitlines()[-1] == ("cwhom check: error: argument --range: expected a..b spanning at most "
                                    "100001 dimensions, got '0..99999999999'")
    assert sum("error" in line for line in err.splitlines()) == 1
    with pytest.raises(SystemExit) as exc:
        main(["check", torus_file, "--range=-5..99996"])
    assert exc.value.code == 3 and "spanning at most 100001" in capsys.readouterr().err
    # the widest range accepted
    from cwhom.cli import _parse_range
    assert _parse_range("-5..99995") == range(-5, 99996) and len(_parse_range("0..100000")) == 100001


@pytest.mark.parametrize("kind, suite", [("complex", "les"), ("complex", "wedge"), ("complex", "dimension"),
                                         ("chain map", "suspension"), ("chain map", "reformulation")])
def test_check_suite_that_does_not_fit_the_document_exits_3(capsys, tmp_path, kind, suite):
    # a suite that a document of this kind cannot run is a usage error,
    # not a silent pass; a malformed document is still refused as such
    doc = complex_to_doc(zoo("torus")) if kind == "complex" else map_to_doc(identity_map(zoo("torus")))
    p = tmp_path / "doc.json"
    p.write_text(dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["check", str(p), "--suite", suite])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert err.startswith("usage: cwhom check")
    assert err.splitlines()[-1] == (f"cwhom check: error: argument --suite: {suite!r} does not apply "
                                    f"to a {kind} document")
    assert sum("error" in line for line in err.splitlines()) == 1
    p.write_text('{"cells": "nope"}')
    code, out, err = run(capsys, "check", str(p), "--suite", suite)
    assert (code, out) == (2, "") and "cells" in err


@pytest.mark.parametrize("argv, option, message", [
    (["--coeff", "Z/7", "--suite", "dimension"], "coeff", "applies only to a FILE check, not to the corpus battery"),
    (["--coeff", "Z"], "coeff", "applies only to a FILE check, not to the corpus battery"),
    (["--range", "0..1"], "range", "applies only to a FILE check, not to the corpus battery"),
    (["{torus}", "--suite", "reformulation", "--range", "5..9"], "range",
     "only the suspension and les suites read a range"),
])
def test_check_option_that_would_go_unread_exits_3(capsys, torus_file, argv, option, message):
    # --coeff and --range that no selected check reads are usage errors,
    # not silently dropped
    with pytest.raises(SystemExit) as exc:
        main(["check", *(a.format(torus=torus_file) for a in argv)])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert err.startswith("usage: cwhom check")
    assert err.splitlines()[-1] == f"cwhom check: error: argument --{option}: {message}"
    assert sum("error" in line for line in err.splitlines()) == 1
    # where a suite reads them, they are used: a FILE check defaults to Z
    code, out, _ = run(capsys, "check", torus_file, "--suite", "reformulation", "--suite", "suspension",
                       "--range", "0..1")
    assert code == 0 and out.splitlines() == ["PASS suspension torus G=Z dims=0..1",
                                              "PASS skeletal torus G=Z dims=0..2"]


def _battery_les_maps():
    """The eight maps of the battery's les suite."""
    from cwhom.chainmaps import inclusion_map
    from cwhom.complexes import skeleton
    t, r = zoo("torus"), zoo("rp", 3)
    return ([sphere_self_map(1, d) for d in (0, 1, 2, 6)] + [sphere_self_map(2, 3), identity_map(t)]
            + [inclusion_map(skeleton(t, 1), t), inclusion_map(skeleton(r, 2), r)])


def _les_range_transcript(directory):
    """Exit code and stdout of ``check --suite les`` on each battery les
    map, over Z and Z + Z/2, at the default range and at -5..40."""
    chunks = []
    for i, f in enumerate(_battery_les_maps()):
        p = Path(directory) / f"f{i}.json"
        p.write_text(dumps(map_to_doc(f)))
        for coeff in ("Z", "Z + Z/2"):
            for extra in ((), ("--range=-5..40",)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["check", str(p), "--suite", "les", "--coeff", coeff, *extra])
                chunks.append(f"{code} {out.getvalue()}{err.getvalue()}")
    return "".join(chunks)


def test_les_check_over_a_range_is_pinned(tmp_path):
    # dimensions outside the cone's range are no longer computed; every
    # report, range header and exit code is as before
    want = (Path(__file__).parent / "data" / "les_ranges.txt").read_text()
    assert _les_range_transcript(tmp_path) == want


@pytest.mark.parametrize("suite", ["les", "suspension"])
def test_check_work_does_not_grow_with_the_range(capsys, monkeypatch, tmp_path, suite):
    # every group outside a check's default range is 0: a longer --range
    # induces no more maps, and the report still names the range asked for
    import cwhom.chainmaps as chainmaps
    import cwhom.verify as verify
    calls = []
    for module in (chainmaps, verify):
        for name in ("induced_map", "shift_iso"):
            def counting(*args, real=getattr(module, name), **kwargs):
                calls.append(args[1])
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
    t = zoo("torus")
    p = tmp_path / "doc.json"
    p.write_text(dumps(map_to_doc(identity_map(t)) if suite == "les" else complex_to_doc(t)))
    counts = []
    for top in (10, 2000):
        calls.clear()
        code, out, err = run(capsys, "check", str(p), "--suite", suite, f"--range=0..{top}")
        assert (code, err) == (0, "") and out.startswith("PASS ") and out.endswith(f" dims=0..{top}\n")
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0 and max(calls) < 10


def _exit_code(argv, stdin=""):
    """cli.main's exit code on argv, with stdin holding ``stdin``; any
    exception it lets out fails the test, as a traceback would."""
    from unittest import mock
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert "Traceback" not in err.getvalue()
    return code


_DOCUMENT_COMMANDS = (["homology", "-"], ["validate", "-"], ["check", "-", "--suite", "suspension"],
                      ["check", "-", "--suite", "les"], ["cone", "-"], ["degree", "-"])


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.one_of(spoiled_documents(sample_complex_documents()), spoiled_documents(sample_map_documents())))
def test_spoiled_documents_end_in_a_documented_exit_code(text):
    for argv in _DOCUMENT_COMMANDS:
        assert _exit_code(argv, text) in (0, 1, 2, 3)


_COEFF_TERMS = st.one_of(
    st.just("Z"), st.builds("Z/{}".format, st.integers(-1, 13)), st.builds("Z^{}".format, st.integers(0, 12)),
    st.builds("(Z/{})^{}".format, st.integers(0, 13), st.integers(0, 4)))


@st.composite
def coefficient_texts(draw):
    """A sum of coefficient terms, with now and then one character put in
    at a random place, or any short text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=6))
    text = " + ".join(draw(st.lists(_COEFF_TERMS, max_size=3)))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(["", "", "", "+", "(", ")", "^", "/", "٢", "²", "x", " "])) + text[at:]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(coefficient_texts())
def test_any_coefficient_text_ends_in_a_documented_exit_code(text):
    # digit runs are cut to two digits: Z^99 is a group the engine
    # computes at once, where Z^999999 is only slow
    text = re.sub(r"\d{3,}", lambda m: m.group()[:2], text)
    doc = dumps(complex_to_doc(zoo("torus")))
    for argv in (["homology", "-", "--coeff", text], ["homology", "-", "--cohomology", f"--coeff={text}"],
                 ["check", "-", "--suite", "suspension", f"--coeff={text}"]):
        assert _exit_code(argv, doc) in (0, 1, 2, 3)


def _call(argv):
    """stdout, stderr and exit code of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return out.getvalue(), err.getvalue(), code


def test_parser_is_built_once_per_process(torus_file):
    # each command's parser on its first call; the full parser on the first
    # call whose arguments a command's parser leaves over
    build_parser.cache_clear()
    for argv in (["homology", torus_file], ["euler", torus_file], ["homology", torus_file, "--dim", "x"]):
        _call(argv)
    assert build_parser.cache_info().misses == 2
    _call(["euler", torus_file])
    assert build_parser.cache_info().misses == 2
    for _ in range(2):
        assert _call(["euler", torus_file, "extra"])[2] == 3
        assert build_parser.cache_info().misses == 3


def _reference_call(argv):
    """stdout, stderr and exit code of argv read by the full parser alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _run(build_parser().parse_args(argv))
        except SystemExit as e:
            code = e.code
    return out.getvalue(), err.getvalue(), code


@pytest.fixture
def sphere_files(tmp_path):
    """A complex document and a chain-map document, both on S^2."""
    x, f = tmp_path / "s2.json", tmp_path / "deg3.json"
    x.write_text(dumps(complex_to_doc(zoo("sphere", 2))))
    f.write_text(dumps(map_to_doc(sphere_self_map(2, 3))))
    return str(x), str(f)


# each command's options and positionals in a valid call: x is a complex
# document, f a chain-map document
_VALID = {"validate": ([], ["x"]), "homology": (["--cohomology", "--coeff", "Z/2"], ["x"]), "euler": ([], ["x"]),
          "susp": ([], ["x"]),
          "wedge": ([], ["x", "x"]), "quotient": (["--below", "1"], ["x"]), "cone": ([], ["f"]),
          "zoo": ([], ["torus"]), "degree": ([], ["f"]), "check": (["--suite", "suspension"], ["x"])}


@pytest.mark.parametrize("command", list(_VALID))
def test_each_call_reads_as_through_the_full_parser(command, sphere_files):
    # main reads an argv with the parser of its command alone; every call
    # still prints the bytes, and exits with the code, of the full parser
    x, f = sphere_files
    opts, pos = _VALID[command]
    pos = [{"x": x, "f": f}.get(p, p) for p in pos]
    # check's file is optional: its missing argument is an option's
    missing = ["check", x, "--range"] if command == "check" else [command, *opts]
    calls = [[command, *pos, *opts], [command, "-h"], missing, [command, *pos, *opts, "--bogus"],
             [command, *pos, *opts, "extra"], [command, *opts, "--", *pos], [command, *pos, *opts, "--co", "Z/2"]]
    calls += [[command, *pos, *opts, *bad] for bad in (["--coeff", "Z/"], ["--dim", "x"], ["--range", "3..1"])]
    for argv in calls:
        assert _call(argv) == _reference_call(argv), argv


@pytest.mark.parametrize("argv", [[], ["-h"], ["nope"], ["--", "homology"], ["-h", "homology"]])
def test_an_argv_that_names_no_command_reads_as_through_the_full_parser(argv):
    assert _call(argv) == _reference_call(argv)


def test_repeated_calls_match_calls_on_a_fresh_parser(torus_file, tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"cells": [1], ')
    calls = (["homology", torus_file], ["homology", torus_file, "--coeff", "Z/"], ["check", "--coeff", "Z/7"],
             ["homology", str(malformed)], ["homology", "-h"],
             ["check", torus_file, "--suite", "suspension", "--suite", "reformulation"],
             ["check", torus_file, "--suite", "suspension", "--suite", "reformulation"],
             ["homology", torus_file])
    kept = [_call(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_call(argv))
    assert kept == fresh
    assert [code for _, _, code in kept] == [0, 3, 3, 2, 0, 0, 0, 0]
    assert kept[5][0].count("PASS ") == 2


_READING_COMMANDS = (["homology"], ["validate"], ["check"], ["euler"], ["susp"], ["wedge"],
                     ["quotient", "--below", "1"], ["cone"], ["degree"])


@pytest.mark.parametrize("command", _READING_COMMANDS)
def test_document_that_is_not_utf8_exits_2(monkeypatch, tmp_path, command):
    p = tmp_path / "bad.json"
    p.write_bytes(b'\xff\xfe{"cells":[1]}')
    assert _call([command[0], str(p), *command[1:]]) == ("", f"cannot read {p}: not UTF-8 text (byte 0)\n", 2)
    # stdin decoded strictly, as under a UTF-8 locale
    text = b'{"cells": [1], "name": "\xe9"}'
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text), encoding="utf-8"))
    want = f"cannot read -: not UTF-8 text (byte {text.index(0xe9)})\n"
    assert _call([command[0], "-", *command[1:]]) == ("", want, 2)


@pytest.mark.parametrize("missing", [False, True])
@pytest.mark.parametrize("command", ["zoo", "susp", "wedge", "quotient", "cone"])
def test_unwritable_output_is_a_usage_error(tmp_path, command, missing):
    t, m = tmp_path / "t.json", tmp_path / "m.json"
    t.write_text(dumps(complex_to_doc(zoo("torus"))))
    m.write_text(dumps(map_to_doc(identity_map(zoo("torus")))))
    args = {"zoo": ["torus"], "susp": [str(t)], "wedge": [str(t), str(t)],
            "quotient": [str(t), "--below", "1"], "cone": [str(m)]}[command]
    target = tmp_path / "missing" / "x.json" if missing else tmp_path
    out, err, code = _call([command, *args, "-o", str(target)])
    reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
    assert (out, code) == ("", 3)
    assert err.startswith(f"usage: cwhom {command} ")
    assert err.endswith(f"\ncwhom {command}: error: argument -o/--output: cannot write {target}: {reason}\n")


def test_second_call_on_unchanged_text_loads_nothing(monkeypatch, tmp_path):
    # the CLI keeps its last document: a call that reads the same text, to
    # load it the same way, under any path, parses, builds and validates
    # nothing, and prints what a fresh process prints
    import cwhom.complexes as complexes
    import cwhom.documents as documents
    text = dumps(complex_to_doc(_grid_torus(3)))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(text)
    second.write_text(text)
    want = ("H^0 = Z + Z/2\nH^1 = Z^2 + Z/2 + Z/2\nH^2 = Z + Z/2\n", "", 0)
    argv = ["homology", "--cohomology", "--coeff", "Z + Z/2"]
    assert _call([*argv, str(first)]) == want
    seen = []
    for module, name in ((documents, "_parse"), (documents, "complex_from_doc"), (complexes, "validate")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: seen.append(name) or real(*a))
    assert _call([*argv, str(first)]) == want
    assert _call([*argv, str(second)]) == want
    assert _call(["homology", str(first)]) == ("H_0 = Z\nH_1 = Z^2\nH_2 = Z\n", "", 0)
    assert seen == []


def test_rewritten_file_is_loaded_again(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(dumps(complex_to_doc(zoo("torus"))))
    assert _call(["homology", str(p)]) == ("H_0 = Z\nH_1 = Z^2\nH_2 = Z\n", "", 0)
    p.write_text(dumps(complex_to_doc(zoo("klein"))))
    assert _call(["homology", str(p)]) == ("H_0 = Z\nH_1 = Z + Z/2\nH_2 = 0\n", "", 0)
    assert _call(["euler", str(p)]) == ("0\n", "", 0)


def test_a_document_that_fails_to_load_is_not_kept(tmp_path):
    # a malformed document exits 2 and an invalid one 1, on every call, and
    # neither replaces the document kept before them
    import cwhom.cli as cli
    good, malformed, invalid = tmp_path / "good.json", tmp_path / "malformed.json", tmp_path / "invalid.json"
    good.write_text(dumps(complex_to_doc(zoo("torus"))))
    malformed.write_text('{"cells": [1], ')
    invalid.write_text(dumps({"cells": [2, 1], "boundaries": {"1": [[1], [1]]}}))
    assert _call(["homology", str(good)])[2] == 0
    kept = cli._kept
    for _ in range(2):
        for command in ("homology", "euler", "validate", "check"):
            out, err, code = _call([command, str(malformed)])
            assert (out, code) == ("", 2) and err.startswith("$: not valid JSON")
        for command in ("homology", "euler", "validate", "check"):
            out, err, code = _call([command, str(invalid)])
            assert (out, code) == ("", 1) and "column 0 has entry sum 2" in err
        assert cli._kept is kept
    assert _call(["homology", str(good)]) == ("H_0 = Z\nH_1 = Z^2\nH_2 = Z\n", "", 0)


def test_a_kept_document_serves_only_its_loader(tmp_path):
    # validate reads a chain map from the text that homology refuses as a
    # complex: each call exits as it would in its own process
    p = tmp_path / "map.json"
    p.write_text(dumps(map_to_doc(identity_map(zoo("torus")))))
    assert _call(["validate", str(p)]) == ("valid chain map\n", "", 0)
    assert _call(["homology", str(p)]) == ("", "$: expected either 'cells' or 'vertices'\n", 2)
    assert _call(["degree", str(p)])[2] == 1
    assert _call(["validate", str(p)]) == ("valid chain map\n", "", 0)
