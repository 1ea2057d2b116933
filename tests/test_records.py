"""Goldens for the nine immutable record classes.

Each record prints, compares and hashes by its fields in declaration order,
refuses assignment and deletion, and survives pickle and copy.  The expected
strings and hashes are those of the package's first record implementation
(frozen dataclasses), so any rewrite must keep them exactly.
"""

import copy
import pickle

import pytest

from exacthom import (
    Cell,
    Generator,
    GradedVectorSpace,
    HomComplexResult,
    QuiverPresentation,
    Representation,
    SampleConfig,
    SurfaceVerdict,
    TheoremReport,
    hom_complex,
    sphere_quiver,
    torus_quiver,
    zero_section_representation,
)
from exacthom.cellular import Incidence
from exacthom.errors import ClassificationError, FormatError

SPHERE_REPR = (
    "QuiverPresentation(generators=(Generator(name='z', degree=-1, invertible=False),), "
    "relations=(('z', ()),))"
)


def _zero_section_hom():
    rep = zero_section_representation()
    return hom_complex(rep, rep)


# (make, equal twin, unequal instance, repr)
CASES = {
    "Generator": (
        lambda: Generator("z", -1),
        lambda: Generator(name="z", degree=-1, invertible=False),
        lambda: Generator("z", 0),
        "Generator(name='z', degree=-1, invertible=False)",
    ),
    "QuiverPresentation": (
        sphere_quiver,
        lambda: QuiverPresentation(generators=[("z", -1)], relations=[("z", ())]),
        lambda: QuiverPresentation((Generator("z", -1),)),
        SPHERE_REPR,
    ),
    "Representation": (
        zero_section_representation,
        lambda: Representation(quiver=sphere_quiver(), space=GradedVectorSpace({0: 1})),
        lambda: Representation(sphere_quiver(), GradedVectorSpace({1: 1})),
        f"Representation(quiver={SPHERE_REPR}, space=GradedVectorSpace({{0: 1}}), "
        "maps={'z': GradedMap(degree=-1, blocks={})})",
    ),
    "HomComplexResult": (
        _zero_section_hom,
        lambda: HomComplexResult(
            complex=_zero_section_hom().complex,
            summand_layout=(("id", 0), ("z", -2)),
            differential_defined=True,
        ),
        lambda: HomComplexResult(_zero_section_hom().complex, (("id", 0), ("z", -2)), False),
        "HomComplexResult(complex=CochainComplex(dims={0: 1, 2: 1}), "
        "summand_layout=(('id', 0), ('z', -2)), differential_defined=True)",
    ),
    "SampleConfig": (
        SampleConfig,
        lambda: SampleConfig(0, 100, 3),
        lambda: SampleConfig(seed=1),
        "SampleConfig(seed=0, count=100, max_total_dim=3)",
    ),
    "TheoremReport": (
        lambda: TheoremReport("t", 0),
        lambda: TheoremReport(theorem="t", samples_checked=0, violations=()),
        lambda: TheoremReport("t", 1),
        "TheoremReport(theorem='t', samples_checked=0, violations=())",
    ),
    "Cell": (
        lambda: Cell("e", 1),
        lambda: Cell(id="e", dim=1),
        lambda: Cell("e", 0),
        "Cell(id='e', dim=1)",
    ),
    "Incidence": (
        lambda: Incidence("e", "v", -1),
        lambda: Incidence(frm="e", to="v", coeff=-1),
        lambda: Incidence("e", "v", 1),
        "Incidence(frm='e', to='v', coeff=-1)",
    ),
    "SurfaceVerdict": (
        lambda: SurfaceVerdict(1, 0, True, True),
        lambda: SurfaceVerdict(genus=1, euler=0, connected=True, orientable_assumed=True),
        lambda: SurfaceVerdict(1, 0, False, True),
        "SurfaceVerdict(genus=1, euler=0, connected=True, orientable_assumed=True)",
    ),
}

# The field tuple each hashable record hashes as.
HASHES = {
    "Generator": ("z", -1, False),
    "QuiverPresentation": ((Generator("z", -1),), (("z", ()),)),
    "SampleConfig": (0, 100, 3),
    "TheoremReport": ("t", 0, ()),
    "Cell": ("e", 1),
    "Incidence": ("e", "v", -1),
    "SurfaceVerdict": (1, 0, True, True),
}

FIELDS = {
    "Generator": "name",
    "QuiverPresentation": "generators",
    "Representation": "maps",
    "HomComplexResult": "complex",
    "SampleConfig": "seed",
    "TheoremReport": "violations",
    "Cell": "id",
    "Incidence": "coeff",
    "SurfaceVerdict": "genus",
}

names = pytest.mark.parametrize("name", sorted(CASES))


@names
def test_repr(name):
    make, twin, _, expected = CASES[name]
    assert repr(make()) == expected
    assert repr(twin()) == expected


@names
def test_equality(name):
    make, twin, other, _ = CASES[name]
    a = make()
    assert a == a
    assert a == twin() and not a != twin()
    assert a != other() and not a == other()
    # A record never equals a plain tuple of its fields, nor another record type.
    assert a != HASHES.get(name, ("z", -1, False))
    assert a != ("z", -1, False)
    assert a != Cell("z", -1) or name == "Cell"
    assert a != Generator("z", -1) or name == "Generator"


@pytest.mark.parametrize("name", sorted(HASHES))
def test_hash(name):
    make, twin, _, _ = CASES[name]
    assert hash(make()) == hash(HASHES[name])
    assert hash(twin()) == hash(make())


@pytest.mark.parametrize("name", ["Representation", "HomComplexResult"])
def test_unhashable(name):
    with pytest.raises(TypeError):
        hash(CASES[name][0]())


def test_report_with_violations_is_unhashable():
    with pytest.raises(TypeError):
        hash(TheoremReport("t", 1, ({"sample": "sample:0"},)))


@names
def test_assignment_refused(name):
    a = CASES[name][0]()
    field = FIELDS[name]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, field) is before


@names
def test_pickle_and_copy(name):
    a = CASES[name][0]()
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is type(a)
        assert b == a
        assert repr(b) == repr(a)


def test_defaults():
    assert Generator("z", -1).invertible is False
    assert QuiverPresentation((("z", -1),)).relations == ()
    assert SampleConfig() == SampleConfig(seed=0, count=100, max_total_dim=3)
    assert TheoremReport("t", 0).violations == ()
    rep = Representation(sphere_quiver(), GradedVectorSpace({0: 1}))
    assert rep.maps == zero_section_representation().maps
    assert set(Representation(torus_quiver(), GradedVectorSpace({0: 1})).maps) == {"m", "n", "h"}


def test_constructor_checks_still_run():
    with pytest.raises(FormatError):
        SampleConfig(count=0)
    with pytest.raises(FormatError):
        SampleConfig(max_total_dim=0)
    with pytest.raises(ClassificationError):
        SurfaceVerdict(1, 2, True, True)
    with pytest.raises(FormatError):
        QuiverPresentation((("z", -1), ("z", 0)))
    # The generator tuple is normalised to Generator records, zero terms dropped.
    q = QuiverPresentation([("a", 1), ("b", 1)], [("b", [(0, ["a"]), (2, ["a", "a"])])])
    assert q.generators == (Generator("a", 1), Generator("b", 1))
    assert q.relations == (("b", ((2, ("a", "a")),)),)


def test_positional_and_keyword_arity():
    with pytest.raises(TypeError):
        Generator("z")
    with pytest.raises(TypeError):
        Generator("z", -1, False, 1)
    with pytest.raises(TypeError):
        SampleConfig(cout=3)
    with pytest.raises(TypeError):
        TheoremReport("t")
