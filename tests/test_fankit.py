import json
import random

import pytest

from fandec.errors import DomainError, ParseError
from fandec.fankit import (
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
from fandec.lattice import is_unimodular, random_unimodular, unimodular_inverse


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
