import itertools
import math
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from fandec.errors import BudgetError, DomainError, ParseError
from fandec.fankit import (
    CIRCUIT_BUDGET,
    _cone_coordinates,
    _facet_cones,
    _matching_orders,
    _ray_signatures,
    _require_smooth_complete,
    Cone,
    Fan,
    blowup_at_cone,
    factorize,
    fan_from_json,
    fan_to_dict,
    fan_to_json,
    hirzebruch,
    is_smooth_complete,
    isomorphic,
    load_fan,
    product,
    projective_fan,
    reassemble,
    validate,
)
from fandec.lattice import IntegerMatrix, is_unimodular, random_unimodular, unimodular_inverse

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def exhaustive_isomorphic(f1, f2):
    """The unpruned frame search: every ordering of every maximal cone of f2."""
    _require_smooth_complete(f1, "isomorphic")
    _require_smooth_complete(f2, "isomorphic")
    if f1.dim != f2.dim:
        return None
    if len(f1.rays) != len(f2.rays) or len(f1.maximal_cones) != len(f2.maximal_cones):
        return None

    sigma = f1.maximal_cones[0]
    inverse = unimodular_inverse(f1.cone_matrix(sigma))
    ray_index_2 = {r: i for i, r in enumerate(f2.rays)}
    cone_set_2 = {c.ray_indices for c in f2.maximal_cones}

    for tau in f2.maximal_cones:
        for perm in itertools.permutations(tau.ray_indices):
            target = IntegerMatrix.from_columns([f2.rays[i] for i in perm])
            candidate = target @ inverse
            image = [candidate.apply(r) for r in f1.rays]
            mapped = []
            ok = True
            for r in image:
                j = ray_index_2.get(r)
                if j is None:
                    ok = False
                    break
                mapped.append(j)
            if not ok:
                continue
            if len(set(mapped)) != len(mapped):
                continue
            if all(
                tuple(sorted(mapped[i] for i in cone.ray_indices)) in cone_set_2
                for cone in f1.maximal_cones
            ):
                return candidate
    return None


def scrambled(fan, rng):
    u = random_unimodular(fan.dim, rng, max_entry=4)
    return Fan(fan.dim, [u.apply(r) for r in fan.rays], [c.ray_indices for c in fan.maximal_cones])


def product_of(*fans):
    out = fans[0]
    for f in fans[1:]:
        out = product(out, f)
    return out


# Folded non-fans that the gate still accepts (ROADMAP item 2).
FOLD2 = Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
FOLD3 = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], list(itertools.combinations(range(4), 3)))


def test_cone_normalization():
    assert Cone((2, 0, 1, 0)).ray_indices == (0, 1, 2)
    assert tuple(Cone([3, 1])) == (1, 3)
    with pytest.raises(DomainError):
        Cone(())
    with pytest.raises(DomainError):
        Cone((-1, 0))


def test_projective_fan_frozen():
    cp2 = projective_fan(2)
    assert cp2.rays == ((1, 0), (0, 1), (-1, -1))
    assert [c.ray_indices for c in cp2.maximal_cones] == [(0, 1), (0, 2), (1, 2)]
    cp1 = projective_fan(1)
    assert cp1.rays == ((1,), (-1,))
    with pytest.raises(DomainError):
        projective_fan(0)


def test_hirzebruch_frozen():
    f2 = hirzebruch(2)
    assert f2.rays == ((1, 0), (0, 1), (-1, 2), (0, -1))
    assert len(f2.maximal_cones) == 4
    # negative twist mirrors onto the positive one
    assert isomorphic(hirzebruch(-1), hirzebruch(1)) is not None


def test_fan_constructor_normalizes_rays():
    fan = Fan(2, [(2, 0), (0, 3), (-1, -1)], [(0, 1), (0, 2), (1, 2)])
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    # duplicate after primitivization collapses onto one index
    fan = Fan(2, [(1, 0), (2, 0), (0, 1), (-1, -1)], [(0, 2), (1, 3), (2, 3)])
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert [c.ray_indices for c in fan.maximal_cones] == [(0, 1), (0, 2), (1, 2)]


def test_fan_constructor_rejects_bad_structure():
    with pytest.raises(DomainError):
        Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 1, 2)])  # containment
    with pytest.raises(DomainError):
        Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1)])  # unused ray
    with pytest.raises(DomainError):
        Fan(2, [(0, 0), (0, 1)], [(0, 1)])  # zero ray
    with pytest.raises(DomainError):
        Fan(2, [(1, 0), (0, 1)], [(0, 2)])  # index out of range
    with pytest.raises(DomainError):
        Fan(9, [(1,) + (0,) * 8], [(0,)])  # dimension bound
    with pytest.raises(DomainError):
        Fan(1, [(10**6 + 1,)], [(0,)])  # entry bound


def test_containment_names_the_smaller_cone_first():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    # the larger cone sorts first here, the smaller one in the next case
    with pytest.raises(DomainError, match=r"^maximal cone \(2, 3\) is contained in maximal cone \(0, 2, 3\)$"):
        Fan(3, rays, [(1, 2), (0, 2, 3), (2, 3)])
    with pytest.raises(DomainError, match=r"^maximal cone \(0, 1\) is contained in maximal cone \(0, 1, 3\)$"):
        Fan(3, rays, [(0, 1, 3), (0, 1), (1, 2), (2, 3)])
    # the first containing pair in sorted order is the one reported
    with pytest.raises(DomainError, match=r"^maximal cone \(0,\) is contained in maximal cone \(0, 1\)$"):
        Fan(3, rays, [(0,), (0, 1), (1, 2, 3), (2,)])
    # cones of one size are never compared, and mixed sizes without containment pass
    assert len(Fan(3, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).maximal_cones) == 4
    assert len(Fan(3, rays, [(0, 1, 2), (1, 3), (0, 3), (2, 3)]).maximal_cones) == 4


def single_cone(dim, rays):
    return Fan(dim, rays, [tuple(range(len(rays)))])


def unit(dim, *support):
    return tuple(1 if i in support else 0 for i in range(dim))


def test_circuit_search_has_a_budget():
    # 18 rays in dimension 8: sum of C(18, s), s = 2..9, subsets to try
    rays = [unit(8, i) for i in range(8)] + [unit(8, i, i + 1) for i in range(7)]
    rays += [unit(8, 0, 1, 2), unit(8, 3, 4, 5), unit(8, 5, 6, 7)]
    needed = sum(math.comb(18, s) for s in range(2, 10))
    with pytest.raises(BudgetError) as err:
        validate(single_cone(8, rays))
    assert (err.value.budget_name, err.value.budget, err.value.needed) == (
        "circuit_budget",
        CIRCUIT_BUDGET,
        needed,
    )
    assert CIRCUIT_BUDGET == 20000
    # 14 rays in dimension 8 need 14 898 subsets and stay inside the budget
    assert sum(math.comb(14, s) for s in range(2, 10)) == 14898 <= CIRCUIT_BUDGET
    # below the budget the circuit search still decides, both ways
    rays = [unit(6, i) for i in range(6)] + [unit(6, i, i + 1) for i in range(4)]
    assert validate(single_cone(6, rays)).strongly_convex
    rays[-1] = tuple(-x for x in rays[0])
    assert not validate(single_cone(6, rays)).strongly_convex
    # simplicial cones take the rank fast path, whatever their size
    assert validate(single_cone(8, [unit(8, i) for i in range(8)])).strongly_convex


def test_validate_flags():
    report = validate(projective_fan(2))
    assert report.all_passed()
    assert report.as_dict() == {
        "strongly_convex": True,
        "simplicial": True,
        "smooth": True,
        "pairwise_faces": True,
        "complete": True,
    }

    # one quadrant only: everything local holds but the fan is not complete
    partial = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    report = validate(partial)
    assert report.smooth and report.strongly_convex and not report.complete

    # opposite rays in one cone: not strongly convex
    line = Fan(1, [(1,), (-1,)], [(0, 1)])
    assert not validate(line).strongly_convex

    # index-2 cone: simplicial but not smooth
    skew = Fan(2, [(1, 0), (1, 2)], [(0, 1)])
    report = validate(skew)
    assert report.simplicial and not report.smooth


def test_validate_hirzebruch_range():
    for a in range(-3, 6):
        assert validate(hirzebruch(a)).all_passed()
    # dropping one maximal cone punches a hole: local checks pass, completeness fails
    fa = hirzebruch(2)
    holed = Fan(2, list(fa.rays), [c.ray_indices for c in fa.maximal_cones[:-1]])
    report = validate(holed)
    assert report.smooth and report.pairwise_faces
    assert not report.complete


def test_validate_pairwise_faces_failure():
    # second cone sits inside the first; their intersection is not a face
    overlapping = Fan(2, [(1, 0), (0, 1), (2, 1)], [(0, 1), (1, 2)])
    report = validate(overlapping)
    assert not report.pairwise_faces
    assert not report.complete
    assert not is_smooth_complete(overlapping)


def test_gate_rejects_a_complete_fan_with_a_determinant_2_cone():
    # complete, but the cones on (1,0),(1,2) and (1,2),(-1,0) have index 2
    fan = Fan(2, [(1, 0), (1, 2), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
    report = validate(fan)
    assert report.complete and report.simplicial and not report.smooth
    assert not is_smooth_complete(fan)
    with pytest.raises(DomainError):
        factorize(fan)


def test_gate_rejects_a_lower_dimensional_maximal_cone():
    flag = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)])
    assert not is_smooth_complete(flag)
    assert not validate(flag).complete
    with pytest.raises(DomainError):
        product(flag, projective_fan(1))
    # CP3 plus a two-dimensional maximal cone on two new rays
    cp3 = projective_fan(3)
    cones = [c.ray_indices for c in cp3.maximal_cones] + [(4, 5)]
    extra = Fan(3, list(cp3.rays) + [(1, 1, 0), (0, 1, 1)], cones)
    assert not is_smooth_complete(extra)
    with pytest.raises(DomainError):
        factorize(extra)


def test_gate_reads_cone_determinants_only(monkeypatch):
    import fandec.fankit as fk

    def forbidden(*args):
        raise AssertionError("the gate must not call rank or extends_to_basis")

    monkeypatch.setattr(fk, "rank", forbidden)
    monkeypatch.setattr(fk, "extends_to_basis", forbidden)
    assert is_smooth_complete(product(hirzebruch(2), projective_fan(2)))
    assert not is_smooth_complete(Fan(2, [(1, 0), (0, 1)], [(0, 1)]))
    assert not is_smooth_complete(Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (0, 2), (1, 2)]))


def test_product_frozen():
    pr = product(projective_fan(1), projective_fan(2))
    assert pr.dim == 3
    assert len(pr.rays) == 5
    assert len(pr.maximal_cones) == 6
    assert pr.rays[0] == (1, 0, 0)
    assert pr.rays[2] == (0, 1, 0)
    assert is_smooth_complete(pr)


def test_product_associativity_support():
    a, b, c = projective_fan(1), hirzebruch(1), projective_fan(2)
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    assert left.dim == right.dim == 5
    assert left.support_key() == right.support_key()


def test_product_dimension_bound():
    cp4 = projective_fan(4)
    assert product(cp4, cp4).dim == 8
    with pytest.raises(DomainError):
        product(product(cp4, cp4), projective_fan(1))


def test_factorize_frozen_cases():
    assert len(factorize(hirzebruch(0)).blocks) == 2
    for a in (1, 2, 3):
        assert len(factorize(hirzebruch(a)).blocks) == 1
    result = factorize(product(projective_fan(1), projective_fan(2)))
    assert sorted(b.factor.dim for b in result.blocks) == [1, 2]
    cp1 = projective_fan(1)
    triple = product(product(cp1, cp1), cp1)
    assert len(factorize(triple).blocks) == 3
    assert is_unimodular(factorize(triple).change_of_basis)


def test_factorize_requires_smooth_complete():
    partial = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(DomainError):
        factorize(partial)


def test_factorize_scrambled_roundtrip():
    rng = random.Random(606)
    base = [projective_fan(1), projective_fan(2), hirzebruch(1), hirzebruch(3)]
    for _ in range(12):
        picks = [base[rng.randrange(len(base))] for _ in range(rng.randint(1, 3))]
        fan = picks[0]
        for f in picks[1:]:
            fan = product(fan, f)
        u = random_unimodular(fan.dim, rng, max_entry=5)
        scrambled = Fan(
            fan.dim, [u.apply(r) for r in fan.rays], [c.ray_indices for c in fan.maximal_cones]
        )
        result = factorize(scrambled)
        assert len(result.blocks) == len(picks)
        assert is_unimodular(result.change_of_basis)
        for block in result.blocks:
            assert is_smooth_complete(block.factor)
        assert reassemble(result).support_key() == scrambled.support_key()


def test_isomorphic_reflexive_and_relabelled():
    cp2 = projective_fan(2)
    assert isomorphic(cp2, cp2) is not None
    relabelled = Fan(2, [(0, 1), (-1, -1), (1, 0)], [(0, 1), (0, 2), (1, 2)])
    cert = isomorphic(cp2, relabelled)
    assert cert is not None
    assert sorted(cert.apply(r) for r in cp2.rays) == sorted(relabelled.rays)


def test_isomorphic_negative_cases():
    # F0 and F2 share all counting invariants but are not equivalent
    assert isomorphic(hirzebruch(0), hirzebruch(2)) is None
    assert isomorphic(hirzebruch(1), hirzebruch(2)) is None
    assert isomorphic(hirzebruch(1), hirzebruch(3)) is None
    assert isomorphic(projective_fan(2), hirzebruch(1)) is None
    assert isomorphic(projective_fan(1), projective_fan(2)) is None
    # even Hirzebruch surfaces are diffeomorphic to F0 but their fans differ
    assert isomorphic(hirzebruch(2), hirzebruch(4)) is None
    # F1^3 vs F1^2 x F2 and F1^4 vs F1^3 x F2, scrambled: 64 cones x 6! and 256 cones x 8! frames
    rng = random.Random(31)
    f1, f2 = hirzebruch(1), hirzebruch(2)
    assert isomorphic(scrambled(product_of(f1, f1, f1), rng), scrambled(product_of(f1, f1, f2), rng)) is None
    dim8 = scrambled(product_of(f1, f1, f1, f1), rng), scrambled(product_of(f1, f1, f1, f2), rng)
    assert isomorphic(*dim8) is None


def test_isomorphic_under_random_unimodular_transform():
    rng = random.Random(707)
    base = [projective_fan(2), hirzebruch(0), hirzebruch(2), projective_fan(3)]
    for fan in base:
        for _ in range(5):
            u = random_unimodular(fan.dim, rng, max_entry=4)
            moved = Fan(
                fan.dim,
                [u.apply(r) for r in fan.rays],
                [c.ray_indices for c in fan.maximal_cones],
            )
            cert = isomorphic(fan, moved)
            assert cert is not None
            assert is_unimodular(cert)
            assert sorted(cert.apply(r) for r in fan.rays) == sorted(moved.rays)
            # cone images must be cones of the target
            target_cones = {frozenset(moved.rays[i] for i in c) for c in moved.maximal_cones}
            for c in fan.maximal_cones:
                image = frozenset(cert.apply(fan.rays[i]) for i in c)
                assert image in target_cones


def test_isomorphic_equivalence_relation():
    rng = random.Random(808)
    f1 = hirzebruch(1)
    u = random_unimodular(2, rng, max_entry=4)
    f2 = Fan(2, [u.apply(r) for r in f1.rays], [c.ray_indices for c in f1.maximal_cones])
    w = random_unimodular(2, rng, max_entry=4)
    f3 = Fan(2, [w.apply(r) for r in f2.rays], [c.ray_indices for c in f2.maximal_cones])

    cert12 = isomorphic(f1, f2)
    cert23 = isomorphic(f2, f3)
    assert cert12 is not None and cert23 is not None

    # symmetric: the inverse certificate works in the other direction
    back = unimodular_inverse(cert12)
    assert sorted(back.apply(r) for r in f2.rays) == sorted(f1.rays)
    assert isomorphic(f2, f1) is not None

    # transitive: composing certificates maps f1 onto f3
    composite = cert23 @ cert12
    assert is_unimodular(composite)
    assert sorted(composite.apply(r) for r in f1.rays) == sorted(f3.rays)
    target_cones = {frozenset(f3.rays[i] for i in c) for c in f3.maximal_cones}
    for c in f1.maximal_cones:
        assert frozenset(composite.apply(f1.rays[i]) for i in c) in target_cones


def test_blowup():
    cp2 = projective_fan(2)
    blown = blowup_at_cone(cp2, (0, 1))
    assert (1, 1) in blown.rays
    assert len(blown.rays) == 4
    assert len(blown.maximal_cones) == 4
    assert isomorphic(blown, hirzebruch(1)) is not None
    with pytest.raises(DomainError):
        blowup_at_cone(hirzebruch(1), (0, 2))


def test_equality_ignores_nothing_support_key_ignores_order():
    cp2 = projective_fan(2)
    shuffled = Fan(2, [(0, 1), (1, 0), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert cp2 != shuffled
    assert cp2.support_key() == shuffled.support_key()


def test_fan_json_roundtrip():
    for fan in (projective_fan(1), projective_fan(3), hirzebruch(2)):
        assert fan_from_json(fan_to_json(fan)) == fan
    doc = fan_to_dict(hirzebruch(1))
    assert set(doc) == {"dim", "rays", "maximal_cones"}
    # canonical serialization is byte-stable
    assert fan_to_json(hirzebruch(1)) == fan_to_json(hirzebruch(1))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "line 1"),
        ("[]", "expected an object"),
        ('{"dim": 1, "rays": [[1]]}', "missing key"),
        ('{"dim": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]], "x": 0}', "unknown key"),
        ('{"dim": "a", "rays": [[1]], "maximal_cones": [[0]]}', "dim"),
        ('{"dim": 1, "rays": [[0]], "maximal_cones": [[0]]}', "zero"),
        ('{"dim": 1, "rays": [[2]], "maximal_cones": [[0]]}', "primitive"),
        ('{"dim": 1, "rays": [[1], [1]], "maximal_cones": [[0], [1]]}', "duplicate"),
        ('{"dim": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [2]]}', "range"),
        ('{"dim": 2, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]}', "coordinates"),
    ],
)
def test_fan_json_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        fan_from_json(text, source="bad.json")
    assert fragment in str(err.value)
    assert "bad.json" in str(err.value)


def test_load_fan(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(fan_to_json(hirzebruch(1)), encoding="utf-8")
    assert load_fan(str(path)) == hirzebruch(1)
    with pytest.raises(ParseError) as err:
        load_fan(str(tmp_path / "missing.json"))
    assert "missing.json" in str(err.value)


def _outcome(search, f1, f2):
    try:
        cert = search(f1, f2)
    except DomainError as exc:
        return ("DomainError", str(exc))
    return None if cert is None else cert.entries


def test_isomorphic_matches_the_exhaustive_oracle():
    rng = random.Random(4242)
    cp1, cp2, f0 = projective_fan(1), projective_fan(2), hirzebruch(0)
    blown = blowup_at_cone(cp2, (0, 1))
    base = [cp1, cp2, projective_fan(3)] + [hirzebruch(a) for a in range(-2, 5)]
    base += [
        blown,
        blowup_at_cone(f0, f0.maximal_cones[0]),
        blowup_at_cone(blown, (0, 2)),
        blowup_at_cone(blown, (0, 3)),
        FOLD2,
        FOLD3,
        product(FOLD2, cp1),
        product(FOLD3, cp1),
        product(cp1, hirzebruch(1)),
        product(cp1, hirzebruch(2)),
        product(cp1, cp2),
        product_of(cp1, cp1, cp1),
        product_of(cp1, cp1, hirzebruch(1)),
        product_of(cp1, cp1, hirzebruch(2)),
        product(hirzebruch(1), hirzebruch(1)),
        product(cp2, cp2),
    ]
    assert max(f.dim for f in base) <= 4
    pool = base + [scrambled(f, rng) for f in base]
    # complete but with a determinant-2 cone, and one quadrant: both fail the gate
    rejected = [
        Fan(2, [(1, 0), (1, 2), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]),
        Fan(2, [(1, 0), (0, 1)], [(0, 1)]),
    ]
    found = 0
    for f1, f2 in itertools.product(pool + rejected, repeat=2):
        # both searches stop at the dim check; the pairs of dims (1, 2) stand for the rest
        if f1.dim != f2.dim and (f1.dim, f2.dim) != (1, 2) and f1 not in rejected and f2 not in rejected:
            continue
        expected = _outcome(exhaustive_isomorphic, f1, f2)
        assert _outcome(isomorphic, f1, f2) == expected, (f1, f2)
        found += isinstance(expected, tuple) and expected[0] != "DomainError"
    assert found > len(pool)


def test_isomorphic_dim8_positive_certificate():
    rng = random.Random(32)
    cp2, f1, f2, f3 = projective_fan(2), hirzebruch(1), hirzebruch(2), hirzebruch(3)
    source = scrambled(product_of(f1, f2, cp2, f3), rng)
    target = scrambled(product_of(f3, cp2, f2, f1), rng)
    cert = isomorphic(source, target)
    assert cert is not None and is_unimodular(cert)
    assert sorted(cert.apply(r) for r in source.rays) == sorted(target.rays)
    target_cones = {frozenset(target.rays[i] for i in c) for c in target.maximal_cones}
    assert {frozenset(cert.apply(source.rays[i]) for i in c) for c in source.maximal_cones} == target_cones


def test_cone_coordinates_match_the_inverse_of_each_cone():
    rng = random.Random(33)
    cp1, cp2 = projective_fan(1), projective_fan(2)
    fans = [
        cp2,
        hirzebruch(3),
        blowup_at_cone(cp2, (0, 1)),
        product(cp1, hirzebruch(1)),
        product_of(cp1, cp2, hirzebruch(2)),
        product_of(hirzebruch(1), hirzebruch(2), cp2),
        FOLD3,
    ]
    for fan in fans + [scrambled(f, rng) for f in fans]:
        coords = _cone_coordinates(fan, _facet_cones(fan))
        assert len(coords) == len(fan.maximal_cones)
        for cone, rows in zip(fan.maximal_cones, coords):
            inverse = unimodular_inverse(fan.cone_matrix(cone))
            assert rows == [inverse.apply(r) for r in fan.rays]


def test_ray_signatures_are_invariants():
    rng = random.Random(34)
    cp1 = projective_fan(1)
    fans = [projective_fan(3), hirzebruch(2), product(cp1, hirzebruch(1)), product_of(cp1, cp1, hirzebruch(3))]
    for fan in fans:
        signatures = _ray_signatures(fan)
        assert _ray_signatures(scrambled(fan, rng)) == signatures
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        rays = [None] * len(perm)
        for i, r in enumerate(fan.rays):
            rays[perm[i]] = r
        relabelled = Fan(fan.dim, rays, [[perm[i] for i in c] for c in fan.maximal_cones])
        moved = _ray_signatures(relabelled)
        assert [moved[perm[i]] for i in range(len(perm))] == signatures


def test_matching_orders_follow_permutations_order():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 6)
        rays = tuple(sorted(rng.sample(range(12), n)))
        signatures = [rng.randrange(3) for _ in range(12)]
        want = [signatures[r] for r in rng.sample(rays, n)]
        if rng.random() < 0.2:
            want[0] = 3
        expected = [
            p for p in itertools.permutations(rays) if all(signatures[r] == w for r, w in zip(p, want))
        ]
        assert list(_matching_orders(rays, want, signatures)) == expected


def test_ray_signatures_tell_hirzebruch_surfaces_apart():
    multisets = {a: Counter(_ray_signatures(hirzebruch(a))) for a in range(-5, 6)}
    for a, b in itertools.combinations(range(6), 2):
        assert multisets[a] != multisets[b], (a, b)
    for a in range(1, 6):
        assert multisets[a] == multisets[-a]
    # F_2 and F_4 are diffeomorphic, but their wall relations differ
    assert multisets[2] != multisets[4]


def test_fans_share_their_cone_objects():
    a = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])
    b = Fan(2, [(0, 1), (-1, -1), (1, 0)], [(1, 2), (0, 2), (0, 1)])
    assert all(x is y for x, y in zip(a.maximal_cones, b.maximal_cones))
    assert a.maximal_cones[0] is projective_fan(2).maximal_cones[0]
    # a Cone built directly is equal to, hashes like and orders like the shared one
    fresh = Cone((1, 0))
    assert fresh == a.maximal_cones[0] and hash(fresh) == hash(a.maximal_cones[0])
    assert Cone((0, 1)) < Cone((0, 2)) < Cone((1, 2))
    assert sorted([Cone((1, 2)), Cone((0, 2)), fresh]) == list(a.maximal_cones)
    assert fresh in a.maximal_cones and Cone((0, 3)) not in a.maximal_cones
    assert blowup_at_cone(a, fresh) == blowup_at_cone(a, (0, 1)) == blowup_at_cone(a, a.maximal_cones[0])


def test_isomorphic_under_python_O():
    code = (
        "import json, random\n"
        "from fandec.fankit import Fan, hirzebruch, isomorphic, product, projective_fan\n"
        "from fandec.lattice import random_unimodular\n"
        "rng = random.Random(35)\n"
        "def moved(f):\n"
        "    u = random_unimodular(f.dim, rng, max_entry=4)\n"
        "    return Fan(f.dim, [u.apply(r) for r in f.rays], [c.ray_indices for c in f.maximal_cones])\n"
        "cp1, f1, f2 = projective_fan(1), hirzebruch(1), hirzebruch(2)\n"
        "pairs = [(f2, hirzebruch(4)), (f1, hirzebruch(-1)), (moved(product(cp1, f1)), moved(product(f1, cp1))),\n"
        "         (moved(product(f1, f1)), moved(product(f1, f2))), (projective_fan(3), moved(projective_fan(3)))]\n"
        "out = [isomorphic(a, b) for a, b in pairs]\n"
        "print(json.dumps([None if m is None else [list(r) for r in m.entries] for m in out]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    results = []
    for flags in (["-O"], []):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    assert results[0] == results[1]
    assert [m is not None for m in results[0]] == [False, True, True, False, True]
