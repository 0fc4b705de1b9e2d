"""Value semantics of the package's frozen record classes: the behaviour
they had as frozen dataclasses, checked against a dataclass twin with the
same fields."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from homlattice.basis import (BasisExpansion, ExpansionTerm,
                              LinearCombination, expand)
from homlattice.flats import Flat, FlatLattice, enumerate_flats
from homlattice.graphs import VertexPartition, cycle, path, quotient
from homlattice.permtree import (GadgetTree, PermanentCheck, build_gadget,
                                 identity_matrix)
from homlattice.restrictions import (HOM, LI, Restriction,
                                     custom_restriction, locally_injective)

FIELDS = {
    VertexPartition: ("blocks", "block_of"),
    Flat: ("partition", "rank"),
    FlatLattice: ("constraint", "flats", "mobius"),
    Restriction: ("kind", "radius", "name", "build"),
    ExpansionTerm: ("coefficient", "graph", "key"),
    BasisExpansion: ("pattern", "restriction", "terms"),
    LinearCombination: ("terms",),
    GadgetTree: ("graph", "roles", "size"),
    PermanentCheck: ("permanent", "subtree_count"),
}


def _samples():
    part = VertexPartition.from_blocks([{0, 2}, {1}])
    expansion = expand(LI, path(3))
    return [
        part,
        Flat(part, 1),
        enumerate_flats(path(3)),
        locally_injective(2),
        expansion.terms[-1],
        expansion,
        LinearCombination.build([(Fraction(1, 3), HOM, path(3))]),
        build_gadget(identity_matrix(2)),
        PermanentCheck(2, 2),
    ]


SAMPLES = _samples()
IDS = [type(obj).__name__ for obj in SAMPLES]


def _hashed(graph):
    hash(graph)
    return graph


# Graph keeps its hash once computed; a copy must still hash equal to it.
# A quotient that contracts an edge carries a selfloop, which a copy keeps.
GRAPHS = [cycle(4), _hashed(cycle(4)),
          quotient(cycle(4), VertexPartition.from_blocks([{0, 1}, {2}, {3}]))]


def _values(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def _twin(obj):
    """The same fields in a frozen dataclass of the same name."""
    cls = dataclasses.make_dataclass(type(obj).__name__, FIELDS[type(obj)],
                                     frozen=True)
    return cls(*_values(obj))


def test_every_class_is_sampled():
    assert sorted(IDS) == sorted(cls.__name__ for cls in FIELDS)


@pytest.mark.parametrize("obj", SAMPLES, ids=IDS)
def test_keyword_copy_is_equal_with_equal_hash(obj):
    other = type(obj)(**dict(zip(FIELDS[type(obj)], _values(obj))))
    assert other is not obj
    assert other == obj and not other != obj
    assert hash(other) == hash(obj)


@pytest.mark.parametrize("obj", SAMPLES, ids=IDS)
def test_repr_and_hash_match_the_dataclass(obj):
    twin = _twin(obj)
    assert repr(obj) == repr(twin)
    assert hash(obj) == hash(twin)
    assert obj != twin


def test_repr_text():
    assert repr(HOM) == \
        "Restriction(kind='hom', radius=None, name=None, build=None)"
    assert repr(PermanentCheck(5, 6)) == \
        "PermanentCheck(permanent=5, subtree_count=6)"
    assert repr(VertexPartition.from_blocks([{0, 2}, {1}])) == (
        "VertexPartition(blocks=(frozenset({0, 2}), frozenset({1})), "
        "block_of=(0, 1, 0))")


def test_other_classes_are_never_equal():
    same_fields = [VertexPartition(1, 2), Flat(1, 2), PermanentCheck(1, 2),
                   (1, 2)]
    for i, a in enumerate(same_fields):
        for b in same_fields[i + 1:]:
            assert a != b and not a == b
    assert PermanentCheck(1, 2) != PermanentCheck(2, 1)
    assert locally_injective(2) != LI


@pytest.mark.parametrize("obj", SAMPLES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(obj):
    for name in FIELDS[type(obj)]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == _samples()[IDS.index(type(obj).__name__)]


@pytest.mark.parametrize("obj", SAMPLES + GRAPHS,
                         ids=IDS + ["Graph", "hashed-Graph", "loopy-Graph"])
def test_pickle_and_deepcopy_round_trip(obj):
    for other in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                  copy.copy(obj)):
        assert type(other) is type(obj)
        assert other == obj and hash(other) == hash(obj)


def test_flat_lattice_leq_is_built_once_and_not_a_field():
    lattice, fresh = enumerate_flats(path(3)), enumerate_flats(path(3))
    leq = lattice.leq
    assert lattice.leq is leq
    assert lattice == fresh and hash(lattice) == hash(fresh)
    assert repr(lattice) == repr(fresh)
    assert pickle.loads(pickle.dumps(lattice)).leq == leq
    with pytest.raises(AttributeError):
        lattice.leq = ()


def test_restriction_validates_kind_radius_and_build():
    for bad in (lambda: Restriction("bogus"),
                lambda: Restriction("hom", radius=2),
                lambda: Restriction("li", radius=0),
                lambda: Restriction("custom")):
        with pytest.raises(ValueError):
            bad()
    assert Restriction(kind="li", radius=2) == locally_injective(2)
    assert Restriction("li", 2) == locally_injective(2)

    def build(pattern):
        return pattern

    custom = custom_restriction(build, name="same")
    assert custom == Restriction("custom", name="same", build=build)
    assert custom.label() == "same" and custom.token() is None
