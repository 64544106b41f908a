"""Family constructors, closed-form counts, and representative lists."""

import pytest

from reeder import families, moves
from reeder.diagram import DiagramError
from reeder.families import FamilySpec, parse_family


def fam(text):
    return families.construct(parse_family(text))


# -- parsing and validation ------------------------------------------------


def test_parse_family_strings():
    assert parse_family("A:5") == FamilySpec("A", 5)
    assert parse_family("affD:7") == FamilySpec("affD", 7)
    assert parse_family("flower:4") == FamilySpec("flower", 4)
    assert parse_family("Abox:6") == FamilySpec("Abox_m", 6)
    assert parse_family("Abox:6:ends=1") == FamilySpec("Abox_1m", 6)
    assert parse_family("G2") == FamilySpec("G2", None)
    assert parse_family("affE7:7") == FamilySpec("affE7", 7)


@pytest.mark.parametrize(
    "text",
    ["Q:3", "A:x", "A:0", "affA:1", "B:1", "D:3", "affD:4", "Y:3",
     "affE7:8", "Abox:2:ends=2", "A:3:junk", "flower:0"],
)
def test_parse_family_rejects(text):
    with pytest.raises(DiagramError):
        parse_family(text)


def test_spec_str_and_n():
    assert str(FamilySpec("affD", 7)) == "affD:7"
    assert str(FamilySpec("G2")) == "G2:2"
    assert FamilySpec("E8").n == 8


# -- construction shapes ---------------------------------------------------


def test_construct_d5_branch():
    d = fam("D:5")
    assert d.n_vertices == 5
    assert d.degree(2) == 3  # printed vertex 3
    assert d.is_tree and d.is_simply_laced


def test_construct_flower4():
    d = fam("flower:4")
    assert d.n_vertices == 5
    assert d.degree(4) == 4  # the center
    assert all(d.degree(i) == 1 for i in range(4))


def test_construct_boxed_families():
    ab = fam("Abox:5:ends=1")
    assert len(ab.free_vertices) == 5 and len(ab.pinned) == 2
    bb = fam("Bbox_1:3")
    assert len(bb.pinned) == 1
    db = fam("Dbox_1:5")
    assert len(db.pinned) == 1 and db.n_vertices == 6


def test_all_families_connected(small_corpus):
    for name, d in small_corpus:
        assert d.is_connected, name


def _least_spec(name):
    """The family at its fixed size, or at the least parameter it accepts."""
    for param in (None, *range(1, 10)):
        try:
            return FamilySpec(name, param)
        except DiagramError:
            pass
    raise AssertionError(f"{name} accepts no parameter up to 9")


@pytest.mark.parametrize("name", families.FAMILY_NAMES)
def test_every_family_at_its_least_size(name):
    spec = _least_spec(name)
    d = families.construct(spec)
    assert d.is_connected
    assert all((e.multiplicity, e.directed) in ((1, False), (2, True)) for e in d.edges)
    back = parse_family(str(spec))
    assert (back.family, back.n) == (spec.family, spec.n)
    deferred = name in families.DEFERRED
    assert (families.closed_form_count(spec) is None) == deferred
    assert (families.canonical_representatives(spec) is None) == deferred


@pytest.mark.parametrize(
    "name,params",
    [("affA", range(2, 12)), ("affB", range(4, 12)), ("affC", range(3, 12)),
     ("affD", range(5, 12)),
     *((name, [None]) for name in ("affE6", "affE7", "affE8", "affF4", "affG2"))],
)
def test_affine_diagram_extends_its_finite_prefix(name, params):
    # the extra vertex 0 is stored last, so the finite diagram is the
    # subdiagram on the first n - 1 internal vertices
    for param in params:
        spec = FamilySpec(name, param)
        aff = families.construct(spec)
        fin = families.construct(FamilySpec(name.removeprefix("aff"), param))
        n = aff.n_vertices
        assert fin.n_vertices == n - 1, spec
        assert {e for e in aff.edges if max(e.u, e.v) < n - 1} == set(fin.edges), spec
        assert {v for v in aff.pinned if v < n - 1} == fin.pinned, spec
        assert families.display_layout(spec, aff) == ((n - 1, *range(n - 1)), True)


@pytest.mark.parametrize("name", families.FAMILY_NAMES)
def test_free_count_without_building(name):
    """free_count reads the free vertices of a family's diagram from its
    smallest one: each parameter step adds one free vertex."""
    least = _least_spec(name)
    params = [None] if least.param is None else range(least.param, least.param + 24)
    for param in params:
        spec = FamilySpec(name, param)
        assert families.free_count(spec) == len(families.construct(spec).free_vertices), spec


def test_vertex_counts():
    assert fam("A:6").n_vertices == 6
    assert fam("affA:6").n_vertices == 7
    assert fam("X:3").n_vertices == 5
    assert fam("Y:5").n_vertices == 6
    assert fam("Z:4").n_vertices == 5
    assert fam("E6_2:6").n_vertices == 5
    assert fam("D4_3:4").n_vertices == 3
    assert fam("A2_2:2").n_vertices == 2


def test_display_layout():
    spec = parse_family("affA:4")
    d = families.construct(spec)
    order, leads = families.display_layout(spec, d)
    assert leads and order == (4, 0, 1, 2, 3)
    spec2 = parse_family("A:4")
    assert families.display_layout(spec2, families.construct(spec2)) == (
        (0, 1, 2, 3),
        False,
    )


# -- xi / eta --------------------------------------------------------------


def test_xi_eta_examples():
    assert families.xi(3, 7).bitstring() == "1010100"
    assert families.eta(2, 7).bitstring() == "0000101"
    assert families.xi(0, 5).bits == 0
    assert families.eta(0, 5).bits == 0
    with pytest.raises(DiagramError):
        families.xi(5, 7)
    with pytest.raises(DiagramError):
        families.eta(-1, 7)


@pytest.mark.parametrize("n", range(1, 9))
def test_xi_eta_have_r_components(n):
    d = fam(f"A:{n}")
    for r in range(-(-n // 2) + 1):
        assert d.count_components(families.xi(r, n)) == r
        assert d.count_components(families.eta(r, n)) == r


# -- closed forms ----------------------------------------------------------


def test_closed_form_examples():
    assert families.closed_form_count(parse_family("affD:6")) == 10
    assert families.closed_form_count(parse_family("affD:7")) == 7
    assert families.closed_form_count(parse_family("A:1")) == 2
    assert families.closed_form_count(parse_family("affC:4")) == 10
    assert families.closed_form_count(parse_family("flower:4")) == 9


def test_closed_form_deferred():
    for name in families.DEFERRED:
        assert families.closed_form_count(FamilySpec(name)) is None


@pytest.mark.parametrize(
    "target,count",
    [("A:4", 3), ("B:2", 3), ("C:3", 4), ("D:4", 5), ("D:5", 4),
     ("affA:4", 4), ("affA:5", 6), ("X:1", 4), ("G2:2", 2), ("affG2:2", 3),
     ("A2_2:2", 3), ("D4_3:4", 3), ("E6_2:6", 4)],
)
def test_closed_form_matches_brute_spot_checks(target, count):
    spec = parse_family(target)
    assert families.closed_form_count(spec) == count
    assert moves.enumerate_classes(families.construct(spec)).class_count == count


def test_flower_coincidences():
    assert families.closed_form_count(parse_family("flower:2")) == 3
    assert families.closed_form_count(parse_family("A:3")) == 3
    assert families.closed_form_count(parse_family("flower:3")) == 5
    assert families.closed_form_count(parse_family("D:4")) == 5


# -- representatives -------------------------------------------------------


@pytest.mark.parametrize(
    "target,n_reps",
    [("affB:4", 7), ("affB:5", 6), ("affD:6", 10), ("affD:7", 7),
     ("D:5", 4), ("D:6", 6)],
)
def test_worked_example_representative_counts(target, n_reps):
    spec = parse_family(target)
    reps = families.canonical_representatives(spec)
    assert len(reps.bits) == n_reps
    part = moves.enumerate_classes(families.construct(spec))
    assert families.check_representatives(spec, reps, part) == []


def test_representatives_deferred():
    assert families.canonical_representatives(FamilySpec("E6")) is None
    part = moves.enumerate_classes(fam("E6:6"))
    problems = families.check_representatives(FamilySpec("E6"), None, part)
    assert problems and "no published representative list" in problems[0]


def test_check_representatives_detects_problems():
    spec = parse_family("A:4")
    part = moves.enumerate_classes(families.construct(spec))
    reps = families.canonical_representatives(spec)
    ok = families.check_representatives(spec, reps, part)
    assert ok == []
    # a partition from the wrong diagram misclassifies the list
    wrong = moves.enumerate_classes(fam("flower:3"))
    assert families.check_representatives(spec, reps, wrong) != []
    # a heavy, a repeated and a missing class, in list order; the boxed
    # diagram's weights count its pinned vertex
    for target, listed, want in [
        ("A:4", [(0b0000, "zero"), (0b0011, "pair"), (0b0001, "single")], [
            "pair: weight 2, class minimum 1",
            "single: same class as representative 1",
            "A:4: 2 classes covered of 3",
        ]),
        ("Abox_m:4", [(0b10000, "zero"), (0b11100, "triple"), (0b10100, "one"),
                      (0b10101, "two")], [
            "triple: same class as representative 0",
            "triple: weight 3, class minimum 1",
        ]),
    ]:
        spec = parse_family(target)
        d = families.construct(spec)
        reps = families.RepresentativeSet(
            tuple(bits for bits, _ in listed), tuple(t for _, t in listed)
        )
        part = moves.enumerate_classes(d)
        assert families.check_representatives(spec, reps, part) == want, target


def test_affine_f4_reps_include_extra_fixed_labeling():
    spec = parse_family("affF4:4")
    reps = families.canonical_representatives(spec)
    assert len(reps.bits) == 5
    assert reps.provenance[-1] == "fixed:omitted"
    d = families.construct(spec)
    assert d.is_fixed(reps.bits[-1])
    part = moves.enumerate_classes(d)
    assert part.class_count == 5
    assert families.check_representatives(spec, reps, part) == []
