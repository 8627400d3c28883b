import io
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import cwhom
from cwhom.chainmaps import identity_map, sphere_self_map
from cwhom.cli import main
from cwhom.complexes import zoo
from cwhom.documents import complex_to_doc, dumps, map_to_doc


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
