"""Acceptance gate: seven criteria, one verdict line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line for its criterion and
fails with the collected problem list when any check inside it fails.
"""

import random
import time
from functools import lru_cache

import numpy as np
import pytest

from reeder import families, moves, sigma
from reeder.classifiers import e6_tree_classify, random_e6_trees
from reeder.diagram import Diagram, Edge, Labeling, disjoint_union
from conftest import family_corpus, same_partition

RANGES = {
    "A": range(1, 21), "affA": range(2, 20), "B": range(2, 21),
    "affB": range(4, 20), "C": range(3, 21), "affC": range(3, 20),
    "D": range(4, 21), "affD": range(5, 20), "X": range(1, 19),
    "Y": range(4, 20), "Z": range(2, 21), "flower": range(1, 20),
    "Abox_m": range(1, 21), "Abox_1m": range(1, 21),
    "Bbox_1": range(1, 21), "Dbox_1": range(4, 21),
}

FIXED_SIZE_COUNTS = {
    "affE6": 4, "affE7": 6, "affE8": 4, "affF4": 4, "G2": 2, "affG2": 3,
    "E6_2": 4, "D4_3": 3, "A2_2": 3,
}

# Labelings (Labeling.bitstring() order) that no class in the paper's list
# contains; each must be fixed by every move and adds one singleton class to
# the published count.  See README, "Known discrepancy".
PUBLISHED_OMISSIONS = {"affF4": ("10101",)}

# One published affine-F4 class; it is closed under the moves only with the
# arrow oriented as in the paper, so it pins the orientation in the builder.
AFF_F4_PUBLISHED_CLASS = {"10000", "11000", "01000"}


@lru_cache(maxsize=None)
def brute_count(family: str, n: int) -> int:
    spec = families.FamilySpec(family, n)
    return moves.enumerate_classes(families.construct(spec)).class_count


VERDICT_LINES: list[str] = []


def report(number: int, description: str, failures: list[str]):
    verdict = "PASS" if not failures else "FAIL"
    line = f"[{verdict}] criterion {number}: {description}"
    print(line)
    VERDICT_LINES.append(line)  # echoed in the terminal summary by conftest
    assert not failures, "\n".join(failures)


def test_criterion_1_formula_census():
    failures = []
    t0 = time.perf_counter()
    for family, rng in RANGES.items():
        for n in rng:
            spec = families.FamilySpec(family, n)
            want = families.closed_form_count(spec)
            got = brute_count(family, n)
            if got != want:
                failures.append(f"{spec}: brute {got} != formula {want}")
    elapsed = time.perf_counter() - t0
    if elapsed > 600:
        failures.append(f"census took {elapsed:.0f}s, over the 10 minute target")
    report(1, f"formula census over all parametric ranges ({elapsed:.0f}s)", failures)


def _fixed_by_every_move(d, lab) -> bool:
    return all(moves.apply_move(d, lab, i) == lab for i in d.free_vertices)


def _outside_published_classes(spec, part) -> list[Labeling]:
    """Labelings in no class of a published representative.

    The representative tagged ``fixed:omitted`` is this package's addition to
    the paper's list, so it does not count as published.
    """
    reps = families.canonical_representatives(spec)
    covered = {
        part.class_of(lab)
        for lab, tag in zip(reps.labelings, reps.provenance)
        if tag != "fixed:omitted"
    }
    return [
        lab
        for c in range(part.class_count)
        if c not in covered
        for lab in part.members(c)
    ]


def test_criterion_2_fixed_size_diagrams():
    failures = []
    notes = []
    parts = {}
    for family, want in FIXED_SIZE_COUNTS.items():
        spec = families.FamilySpec(family)
        part = parts[family] = moves.enumerate_classes(families.construct(spec))
        d = part.diagram
        omitted = PUBLISHED_OMISSIONS.get(family, ())
        formula = families.closed_form_count(spec)
        if formula != want:
            failures.append(f"{spec}: closed form {formula} != published {want}")
        outside = _outside_published_classes(spec, part)
        if sorted(lab.bitstring() for lab in outside) != sorted(omitted):
            found = ", ".join(
                f"{lab} ({'fixed' if _fixed_by_every_move(d, lab) else 'not fixed'})"
                for lab in outside
            )
            failures.append(
                f"{spec}: outside the published classes: {found or 'none'};"
                f" listed omissions: {', '.join(omitted) or 'none'}"
            )
        for bits in omitted:
            if not _fixed_by_every_move(d, Labeling.from_bits(bits)):
                failures.append(f"{spec}: omitted {bits} is not fixed by every move")
        if part.class_count != want + len(omitted):
            failures.append(
                f"{spec}: brute {part.class_count} != published {want}"
                f" + {len(omitted)} omitted"
            )
        if omitted:
            notes.append(
                f"{family} = published {want} + {len(omitted)} omitted fixed labeling"
            )
    aff_f4 = parts["affF4"]
    got = {
        lab.bitstring()
        for lab in aff_f4.members(aff_f4.class_of(Labeling.from_bits("10000")))
    }
    if got != AFF_F4_PUBLISHED_CLASS:
        failures.append(
            f"affF4: class of 10000 is {sorted(got)},"
            f" published {sorted(AFF_F4_PUBLISHED_CLASS)}"
        )
    for family in ("E6", "E7", "E8"):
        spec = families.FamilySpec(family)
        d = families.construct(spec)
        got = brute_count(family, spec.n)
        predicted = (1 << d.adjacency_matrix().nullity()) + 2
        if got != predicted:
            failures.append(f"{spec}: brute {got} != 2^nullity+2 = {predicted}")
    brute_count("F4", 4)  # brute force only; no number asserted
    report(2, f"fixed-size diagram counts ({'; '.join(notes)})", failures)


def test_criterion_3_representative_validity():
    failures = []
    targets = [
        (family, n) for family, rng in RANGES.items() for n in rng
    ] + [(family, families.FamilySpec(family).n) for family in FIXED_SIZE_COUNTS]
    for family, n in targets:
        spec = families.FamilySpec(family, n)
        part = moves.enumerate_classes(families.construct(spec))
        for problem in families.check_representatives(spec, part):
            failures.append(f"{spec}: {problem}")
    worked = {
        ("affB", 4): 7, ("affB", 5): 6, ("affD", 6): 10, ("affD", 7): 7,
        ("D", 5): 4, ("D", 6): 6,
    }
    for (family, n), count in worked.items():
        reps = families.canonical_representatives(families.FamilySpec(family, n))
        if len(reps.labelings) != count:
            failures.append(
                f"{family}:{n}: {len(reps.labelings)} reps, expected {count}"
            )
    report(3, "published representative lists valid and complete", failures)


def _vector_successors(diagram, states):
    """(successor state array, free bit index) per free vertex, vectorized."""
    a, b, c = moves._move_tables(diagram)
    for bit, (mask, flip, const) in enumerate(zip(a, b, c)):
        # widen the uint8 popcount: in uint8, a flip above bit 7 is lost
        p = (np.bitwise_count(states & mask).astype(np.int64) ^ const) & 1
        yield states ^ (p * flip), bit


def test_criterion_4_invariant_suites(tree_corpus_14):
    failures = []

    # involution on every corpus diagram with at most 12 vertices
    for name, d in family_corpus(12):
        states = np.arange(1 << len(d.free_vertices), dtype=np.int64)
        for succ, bit in _vector_successors(d, states):
            if not np.array_equal(succ[succ], states):
                failures.append(f"{name}: move at free bit {bit} not an involution")

    # component preservation (degree <= 2) and parity preservation on all
    # simply-laced trees with at most 14 vertices in the corpus
    for name, d in tree_corpus_14:
        states = np.arange(1 << d.n_vertices, dtype=np.int64)
        comps = moves.component_counts(d, states)
        for succ, bit in _vector_successors(d, states):
            if d.degree(bit) <= 2 and not np.array_equal(comps[succ], comps):
                failures.append(f"{name}: degree-{d.degree(bit)} move at "
                                f"{bit} changed a component count")
            if not np.array_equal(comps[succ] & 1, comps & 1):
                failures.append(f"{name}: move at {bit} changed parity")

    # the 5-vertex cyclic counterexample: a degree-3 move on the all-ones
    # labeling drops the pendant vertex, going from 1 to 2 components
    cyc = Diagram(5, [Edge(0, 1), Edge(1, 2), Edge(1, 4), Edge(2, 3), Edge(3, 4)])
    ones = Labeling(5, 0b11111)
    moved = moves.apply_move(cyc, ones, 1)
    if not (
        cyc.count_components(ones) == 1 and cyc.count_components(moved) == 2
    ):
        failures.append("cyclic counterexample did not change parity")

    # product law on 50 seeded random disjoint unions
    pool = [
        (name, d) for name, d in family_corpus(9) if len(d.free_vertices) <= 9
    ]
    rng = random.Random(404)
    for _ in range(50):
        (na, a), (nb, b) = rng.sample(pool, 2)
        u = disjoint_union(a, b)
        cu = moves.enumerate_classes(u).class_count
        ca = moves.enumerate_classes(a).class_count
        cb = moves.enumerate_classes(b).class_count
        if cu != ca * cb:
            failures.append(f"{na} + {nb}: {cu} != {ca} * {cb}")

    report(4, "involution, preservation laws, counterexample, product law", failures)


def test_criterion_5_e6_tree_theorem():
    failures = []
    for idx, tree in enumerate(random_e6_trees(200, max_vertices=20, seed=12345)):
        pred = e6_tree_classify(tree)
        part = moves.enumerate_classes(tree)
        expected = (1 << tree.adjacency_matrix().nullity()) + 2
        if pred.fallback:
            failures.append(f"tree {idx}: classifier fell back to enumeration")
        if part.class_count != expected or pred.class_count != expected:
            failures.append(
                f"tree {idx}: brute {part.class_count}, predicted "
                f"{pred.class_count}, 2^nullity+2 = {expected}"
            )
        elif not same_partition(part.class_id_array(), pred.key_ids()):
            failures.append(f"tree {idx}: memberships differ from prediction")
    report(5, "branching-tree classifier on 200 random trees", failures)


def test_criterion_6_duality():
    failures = []
    corpus14 = [
        (name, d)
        for name, d in family_corpus(14)
        if d.is_simply_laced and not d.pinned
    ]
    for name, d in corpus14:
        if not sigma.duality_check(d):
            failures.append(f"{name}: transpose/intertwining identities failed")
    corpus16 = [
        (name, d)
        for name, d in family_corpus(16)
        if d.is_simply_laced and not d.pinned
    ]
    verified_somewhere = False
    for name, d in corpus16:
        report_ = sigma.orbit_bijection_check(d)
        if report_.det_A == 1:
            verified_somewhere = True
            if report_.bijection_verified is not True:
                failures.append(f"{name}: det A = 1 but bijection not verified")
    if not verified_somewhere:
        failures.append("no det A = 1 diagram found in the corpus")
    a3 = sigma.orbit_bijection_check(
        families.construct(families.FamilySpec("A", 3))
    )
    if a3.applicable or a3.det_A != 0 or a3.bijection_verified is not None:
        failures.append("A:3 should be reported not-applicable")
    report(6, "sigma duality identities and orbit bijection", failures)


def test_criterion_7_decomposition_identities():
    failures = []

    def check(label, lhs, rhs):
        if lhs != rhs:
            failures.append(f"{label}: {lhs} != {rhs}")

    for n in RANGES["C"]:
        check(
            f"C:{n}",
            brute_count("C", n),
            brute_count("A", n - 1) + brute_count("Abox_m", n - 1),
        )
    for n in RANGES["affC"]:
        check(
            f"affC:{n}",
            brute_count("affC", n),
            brute_count("A", n - 1)
            + 2 * brute_count("Abox_m", n - 1)
            + brute_count("Abox_1m", n - 1),
        )
    for n in RANGES["X"]:
        check(
            f"X:{n}",
            brute_count("X", n),
            brute_count("B", n + 1) + brute_count("Bbox_1", n),
        )
    for n in RANGES["Y"]:
        check(
            f"Y:{n}",
            brute_count("Y", n),
            brute_count("D", n) + brute_count("Dbox_1", n),
        )
    report(7, "decomposition identities across all census ranges", failures)
