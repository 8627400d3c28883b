"""The package's value types: construction, equality and hashing over their
compared fields, repr, frozen errors, copy and pickle.

Each case builds one value, the tuple of fields its ``==`` and ``hash``
read (``name`` is not among them), one value that differs in a compared
field, and, for the small ones, the repr pinned in full.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

import cwhom
from cwhom.abgroups import AbHom, FgAbGroup
from cwhom.chainmaps import ChainMap, MappingCone, identity_map, mapping_cone
from cwhom.complexes import CwComplex, EdgePresentation, from_presentation, zoo
from cwhom.homology import CoeffPresentation
from cwhom.intmat import IntMatrix, SnfResult, snf
from cwhom.verify import CheckReport

Z, Z2 = FgAbGroup(1), FgAbGroup(0, (2,))
CIRCLE = CwComplex((1, 1), (IntMatrix(1, 1, (0,)),), 0, "circle")


def _cases():
    m = IntMatrix(2, 1, (1, -1))
    yield (m, (2, 1, (1, -1)), IntMatrix(1, 2, (1, -1)),
           "IntMatrix(rows=2, cols=1, entries=(1, -1))")
    s = snf(IntMatrix(1, 1, (2,)))
    yield (s, (s.U, s.Uinv, s.S, s.V, s.Vinv), snf(IntMatrix(1, 1, (3,))),
           "SnfResult(U=IntMatrix(rows=1, cols=1, entries=(1,)), Uinv=IntMatrix(rows=1, cols=1, entries=(1,)), "
           "S=IntMatrix(rows=1, cols=1, entries=(2,)), V=IntMatrix(rows=1, cols=1, entries=(1,)), "
           "Vinv=IntMatrix(rows=1, cols=1, entries=(1,)))")
    yield FgAbGroup(1, (2,)), (1, (2,)), FgAbGroup(1, (4,)), "FgAbGroup(rank=1, torsion=(2,))"
    h = AbHom(Z, Z2, IntMatrix(1, 1, (3,)))
    yield (h, (Z, Z2, IntMatrix(1, 1, (1,))), AbHom(Z, Z2, IntMatrix(1, 1, (0,))),
           "AbHom(source=FgAbGroup(rank=1, torsion=()), target=FgAbGroup(rank=0, torsion=(2,)), "
           "matrix=IntMatrix(rows=1, cols=1, entries=(1,)))")
    yield (CIRCLE, ((1, 1), CIRCLE.boundaries, 0), CwComplex((2, 1), (IntMatrix(2, 1, (-1, 1)),), 0, "circle"),
           "CwComplex(cells=(1, 1), boundaries=(IntMatrix(rows=1, cols=1, entries=(0,)),), basepoint=0, "
           "name='circle')")
    p = EdgePresentation(1, ((0, 0),), ((1, -1),))
    yield (p, (1, ((0, 0),), ((1, -1),), 0), EdgePresentation(1, ((0, 0),)),
           "EdgePresentation(vertices=1, edges=((0, 0),), faces=((1, -1),), basepoint=0)")
    # the presentations are compared by identity, so stand-ins fill them here
    c = CoeffPresentation(Z, Z2, 3, ((2, "factor"),), "glue")
    yield (c, (Z, Z2, 3, ((2, "factor"),), "glue"), CoeffPresentation(Z, Z2, 3, (), "glue"),
           "CoeffPresentation(group=FgAbGroup(rank=1, torsion=()), coeff=FgAbGroup(rank=0, torsion=(2,)), "
           "ambient_dim=3, factors=((2, 'factor'),), glue='glue')")
    f = identity_map(zoo("torus"))
    g = ChainMap(f.source, f.target, f.maps, "id")
    yield g, (f.source, f.target, f.maps), ChainMap(f.source, f.target, (-f.maps[0],) + f.maps[1:]), None
    cone = mapping_cone(f)
    yield (cone, (f, cone.cone, cone.inclusion, cone.projection),
           MappingCone(f, cone.cone, cone.inclusion, cone.inclusion), None)
    r = CheckReport("dimension", "point", Z, range(0, 2), ["witness"])
    yield (r, ("dimension", "point", Z, range(0, 2), ["witness"]), CheckReport("dimension", "point", Z, range(0, 2)),
           "CheckReport(check='dimension', subject='point', coeff=FgAbGroup(rank=1, torsion=()), dims=range(0, 2), "
           "witnesses=['witness'])")


CASES = list(_cases())


def _params(keep=lambda case: True):
    return [pytest.param(*case, id=type(case[0]).__name__) for case in CASES if keep(case)]


def test_every_value_type_has_a_case():
    assert len({type(case[0]) for case in CASES}) == 10


def test_positional_and_keyword_construction_with_defaults():
    m = IntMatrix(rows=1, cols=2, entries=(3, 4))
    assert m == IntMatrix(1, 2, (3, 4)) and (m.rows, m.cols, m.entries) == (1, 2, (3, 4))
    s = snf(IntMatrix(1, 1, (2,)))
    assert SnfResult(U=s.U, Uinv=s.Uinv, S=s.S, V=s.V, Vinv=s.Vinv) == SnfResult(s.U, s.Uinv, s.S, s.V, s.Vinv) == s
    assert FgAbGroup(2) == FgAbGroup(rank=2) == FgAbGroup(2, ()) and FgAbGroup(2).torsion == ()
    assert FgAbGroup(torsion=(2, 4), rank=0) == FgAbGroup(0, (2, 4))
    h = AbHom(source=Z, target=Z2, matrix=IntMatrix(1, 1, (1,)))
    assert h == AbHom(Z, Z2, IntMatrix(1, 1, (1,))) and (h.source, h.target) == (Z, Z2)
    x = CwComplex((1, 1), CIRCLE.boundaries)
    assert (x.basepoint, x.name) == (0, "") and x == CIRCLE
    assert CwComplex(cells=(1, 1), boundaries=CIRCLE.boundaries, name="circle", basepoint=0).name == "circle"
    p = EdgePresentation(1, ((0, 0),))
    assert (p.faces, p.basepoint) == ((), 0)
    assert EdgePresentation(vertices=1, edges=((0, 0),), faces=(), basepoint=0) == p
    assert from_presentation(EdgePresentation(1, ((0, 0),), ((1, -1),))).cells == (1, 1, 1)
    c = CoeffPresentation(group=Z, coeff=Z, ambient_dim=1, factors=(), glue=None)
    assert c == CoeffPresentation(Z, Z, 1, (), None) and c.num_generators == 1
    f = identity_map(CIRCLE)
    assert ChainMap(f.source, f.target, f.maps).name == "" and ChainMap(f.source, f.target, f.maps, "id").name == "id"
    assert ChainMap(source=f.source, target=f.target, maps=f.maps, name="id") == f
    cone = mapping_cone(identity_map(zoo("torus")))
    assert MappingCone(map=cone.map, cone=cone.cone, inclusion=cone.inclusion, projection=cone.projection) == cone
    r, s = CheckReport("dimension", "point", Z, range(0, 2)), CheckReport("dimension", "point", Z, range(0, 2))
    assert r.witnesses == [] and r.witnesses is not s.witnesses
    assert CheckReport(check="dimension", subject="point", coeff=Z, dims=range(0, 2), witnesses=[]) == r


@pytest.mark.parametrize("value, key, other, text", _params())
def test_equality_and_hash_read_the_compared_fields(value, key, other, text):
    assert value == copy.copy(value) and not value != copy.copy(value)
    assert value != other and other != value
    assert value != key  # another class is never equal
    if isinstance(value, CheckReport):
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(key)
    if hasattr(value, "name"):
        renamed = type(value)(*key, name="renamed")
        assert renamed == value and hash(renamed) == hash(value) and len({renamed, value}) == 1


@pytest.mark.parametrize("value, key, other, text", _params(lambda case: case[3]))
def test_repr_is_pinned(value, key, other, text):
    assert repr(value) == text


def test_str_is_kept():
    assert str(FgAbGroup(1, (2,))) == "Z + Z/2"
    assert str(CIRCLE) == "circle[1, 1]"


@pytest.mark.parametrize("value, key, other, text", _params(lambda case: not isinstance(case[0], CheckReport)))
def test_frozen_errors(value, key, other, text):
    field = type(value).__match_args__[0]
    before = getattr(value, field)
    with pytest.raises(FrozenInstanceError, match=rf"^cannot assign to field '{field}'$"):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError, match=r"^cannot assign to field 'extra'$"):
        value.extra = 1
    with pytest.raises(FrozenInstanceError, match=rf"^cannot delete field '{field}'$"):
        delattr(value, field)
    assert getattr(value, field) is before


def test_check_report_stays_mutable():
    r = CheckReport("dimension", "point", Z, range(0, 2))
    r.witnesses.append("w")
    r.subject = "other"
    assert not r.passed and r.subject == "other"


@pytest.mark.parametrize("value, key, other, text", _params())
def test_copy_and_pickle_give_an_equal_value(value, key, other, text):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value
        if hasattr(value, "name"):
            assert clone.name == value.name != ""


def test_chain_maps_and_cones_hash_once(monkeypatch):
    # the hash is kept on the frozen value: a second hash() reads no
    # field's hash, equal values still hash equal, and copy and pickle
    # carry the fields alone
    f = identity_map(zoo("torus"))
    cone = mapping_cone(f)
    cases = [(ChainMap(f.source, f.target, f.maps, "id"), (CwComplex, IntMatrix)),
             (MappingCone(cone.map, cone.cone, cone.inclusion, cone.projection), (ChainMap, CwComplex))]
    for value, field_types in cases:
        pickled = pickle.dumps(value)
        twin = type(value)(*(getattr(value, name) for name in type(value).__match_args__))
        first = hash(value)
        read = []
        with monkeypatch.context() as m:
            for t in field_types:
                m.setattr(t, "__hash__", lambda self, real=t.__hash__: read.append(self) or real(self))
            assert hash(value) == first and read == []
            assert hash(twin) == first and read
        assert pickle.dumps(value) == pickled
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickled)):
            assert type(clone) is type(value) and clone == value and hash(clone) == first


def test_groups_hash_once(monkeypatch):
    # a group is part of every chain_group key: its hash is kept in a slot,
    # so a second hash() builds no key tuple; equal groups still hash
    # equal, and the slot reaches neither copy, pickle nor repr
    g = FgAbGroup(1, (2,))
    pickled = pickle.dumps(g)
    first = hash(g)
    built = []
    with monkeypatch.context() as m:
        m.setattr(FgAbGroup, "_key", lambda self, real=FgAbGroup._key: built.append(self) or real(self))
        assert hash(g) == first and built == []
        twin = FgAbGroup(1, (2,))
        assert hash(twin) == first and built == [twin]
    assert pickle.dumps(g) == pickled and repr(g) == "FgAbGroup(rank=1, torsion=(2,))"
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickled)):
        assert type(clone) is FgAbGroup and clone == g and hash(clone) == first


def test_cli_import_loads_no_introspection_modules():
    # about 20 ms and 1 MB at every CLI start went to generating dataclass
    # methods and to the modules dataclasses pulls in
    src = os.path.dirname(os.path.dirname(os.path.abspath(cwhom.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; import cwhom.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
