"""The package's records are named tuples: each has the repr, hash, order
and immutability pinned here, and the two with a constructor check
(EpBits, ExplicitHomSet) run it on every way in."""

import pytest

from oddwalk.bruteforce import SiblingReport
from oddwalk.check import SuiteResult
from oddwalk.dichotomy import Tower, TowerReport
from oddwalk.equiv import EquivalenceTower, EquivReport
from oddwalk.errors import NotHomomorphism, ParseError
from oddwalk.gadget import GadgetVertex, build_gadget
from oddwalk.generators import cycle_graph
from oddwalk.graphs import Coloring, Walk
from oddwalk.homset import ExplicitHomSet, Hom, LargeVerdict, TinyVerdict
from oddwalk.limitgraph import (EpBits, LcVertex, LevelQuotient,
                                SiblingObstruction)
from oddwalk.parity import PhiVerdict

K3 = cycle_graph(3)
ROOT = build_gadget(())
HOM = Hom(("c0",), ())

RECORDS = [
    (Hom(("a", "b"), ("w",)),
     "Hom(vertex_images=('a', 'b'), witness_images=('w',))"),
    (TinyVerdict(True, GadgetVertex(0)),
     "TinyVerdict(tiny=True, vertex=GadgetVertex(k=0, t=()))"),
    (LargeVerdict(False), "LargeVerdict(large=False, witness=None)"),
    (ExplicitHomSet(ROOT, K3, (HOM,)),
     "ExplicitHomSet(gadget=PathGadget(prefix=(), vertices=1), "
     "target=WitnessedGraph(3 vertices, 3 witnesses), "
     "homs=(Hom(vertex_images=('c0',), witness_images=()),))"),
    (EpBits((0, 1, 1), (1, 1)), "EpBits(prefix=(0,), period=(1,))"),
    (LcVertex(1, 0, EpBits((1,), (0,))),
     "LcVertex(m=1, k=0, x=EpBits(prefix=(1,), period=(0,)))"),
    (LevelQuotient((), ROOT),
     "LevelQuotient(prefix=(), gadget=PathGadget(prefix=(), vertices=1))"),
    (SiblingObstruction(GadgetVertex(0, (0,)), GadgetVertex(0, (1,)), 3),
     "SiblingObstruction(left=GadgetVertex(k=0, t=(0,)), "
     "right=GadgetVertex(k=0, t=(1,)), distance=3)"),
    (Tower((1,), HOM, (1,)),
     "Tower(prefix=(1,), top=Hom(vertex_images=('c0',), witness_images=()), "
     "schedule_values=(1,))"),
    (TowerReport(3, ("x",)), "TowerReport(checks=3, violations=('x',))"),
    (EquivalenceTower((1,), (1,), (0, 1), (((0,), (1,)),), ((0, 1),),
                      ((0,), (0, 1))),
     "EquivalenceTower(source_prefix=(1,), target_prefix=(1,), "
     "level_map=(0, 1), suffixes=(((0,), (1,)),), join_walks=((0, 1),), "
     "maps=((0,), (0, 1)))"),
    (EquivReport(2, ()), "EquivReport(checks=2, violations=())"),
    (Walk(("a", "b"), ("w",)), "Walk(vertices=('a', 'b'), witnesses=('w',))"),
    (Coloring({"a": 0}), "Coloring(by_vertex={'a': 0})"),
    (PhiVerdict(), "PhiVerdict(min_odd_length=None)"),
    (SiblingReport(2, ()), "SiblingReport(pairs_checked=2, violations=())"),
    (SuiteResult("s", 3, ("f",)), "SuiteResult(name='s', trials=3, failures=('f',))"),
]


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_contract(record, text):
    assert repr(record) == text
    assert record == tuple(record)
    if isinstance(record, Coloring):
        # a dict field makes the record unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(record))
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_hom_sorts_by_vertex_then_witness_images():
    homs = [Hom(("b",), ()), Hom(("a", "c"), ("x",)), Hom(("a", "b"), ("y",)),
            Hom(("a", "b"), ("x",))]
    assert sorted(homs) == sorted(homs, key=lambda h: (h.vertex_images,
                                                       h.witness_images))
    assert Hom(("a", "b"), ("x",)) < Hom(("a", "b"), ("y",)) < Hom(("b",), ())


def test_ep_bits_is_canonical_however_made():
    want = EpBits((), (0, 1))
    assert want == ((), (0, 1))
    made = [EpBits((0,), (1, 0, 1, 0)), EpBits(prefix=[0], period=[1, 0]),
            EpBits._make(((0, 1, 0), (1, 0))),
            EpBits((), (1, 1))._replace(period=(0, 1, 0, 1)),
            EpBits((0,), (1, 0))._replace(prefix=())._replace(period=(0, 1, 0, 1))]
    assert made == [want] * len(made)
    assert all(type(x) is EpBits for x in made)
    for bad in (lambda: EpBits((), ()), lambda: EpBits._make(((2,), (0,))),
                lambda: want._replace(period=())):
        with pytest.raises(ParseError):
            bad()
    with pytest.raises(TypeError):
        EpBits._make(((),))


def test_explicit_hom_set_validates_however_made():
    s = ExplicitHomSet(ROOT, K3, (HOM,))
    assert len(s.homs) == 1 and s.homs == (HOM,)
    assert ExplicitHomSet._make((ROOT, K3, (HOM,))) == s
    assert s._replace(homs=()).homs == () and len(s._replace(homs=()).homs) == 0
    invalid = Hom(("x",), ())
    for make in (lambda: ExplicitHomSet(ROOT, K3, (invalid,)),
                 lambda: ExplicitHomSet._make((ROOT, K3, (invalid,))),
                 lambda: s._replace(homs=(invalid,))):
        with pytest.raises(NotHomomorphism):
            make()
    for make in (lambda: ExplicitHomSet(ROOT, K3, (HOM, HOM)),
                 lambda: ExplicitHomSet._make((ROOT, K3, (HOM, HOM))),
                 lambda: s._replace(homs=(HOM, HOM))):
        with pytest.raises(ParseError, match="duplicate"):
            make()
