import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from fandec.errors import DomainError, InconsistentBundleError
from fandec.lattice import IntegerMatrix, determinant
from fandec.polys import poly_mul, poly_pow
from fandec.recovery import (
    InvariantBundle,
    MultiplicityVector,
    _kinds_of_class,
    bundle,
    cancellation_check,
    multiplicities_of,
    realize,
    recover,
    recover_poincare_tail,
    same_decomposition,
)
from fandec.squarezero import (
    LINE,
    Diag,
    FourSphere,
    PQ,
    ProductManifold,
    ProjLine,
    factor_census,
    normalize,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_multiplicity_vector_normalizes():
    v = MultiplicityVector(m=1, m_pq={(2, 1): 0, (3, 0): 2}, n_r={2: 0, 3: 1}, n=0)
    assert v.m_pq == {(3, 0): 2}
    assert v.n_r == {3: 1}
    assert v.summary() == "m=1, m_{3,0}=2, n_3=1"
    assert MultiplicityVector().summary() == "all zero"
    with pytest.raises(DomainError):
        MultiplicityVector(m=-1)
    with pytest.raises(DomainError):
        MultiplicityVector(n_r={1: 2})  # DIAG(1) is not in the alphabet
    with pytest.raises(DomainError):
        MultiplicityVector(m_pq={(1, 2): 1})
    bad = [
        dict(m=True),
        dict(n=False),
        dict(m=1.0),
        dict(m_pq={(2, 1): True}),
        dict(n_r={2: True}),
        dict(m_pq={(2.5, 1): 1}),
        dict(m_pq={(2, 1.0): 1}),
        dict(m_pq={(True, False): 1}),
        dict(m_pq={(2,): 1}),
        dict(m_pq={(2, 1, 0): 1}),
        dict(m_pq={"PQ": 1}),
        dict(n_r={2.0: 1}),
        dict(n_r={True: 1}),
    ]
    for kwargs in bad:
        with pytest.raises(DomainError):
            MultiplicityVector(**kwargs)


def test_realize_and_multiplicities_inverse():
    v = MultiplicityVector(m=2, m_pq={(3, 1): 1, (1, 1): 2}, n_r={2: 1}, n=1)
    pm = realize(v)
    assert pm.descriptor() == "CP1^2 * PQ(1,1)^2 * PQ(3,1) * DIAG(2) * S4"
    assert multiplicities_of(pm) == v


def test_bundle_frozen_examples():
    b = bundle(ProductManifold([ProjLine(), ProjLine(), PQ(1, 1)]))
    assert b.census.as_dict() == {"R": 8}
    assert b.class_mod2_counts == {LINE: 3}
    assert b.poincare_poly == (1, 4, 6, 4, 1)
    assert b.complex_dim == 4

    b = bundle(ProductManifold([PQ(2, 2), Diag(2)]))
    assert b.census.as_dict() == {"S1xS1xR": 2}
    assert b.class_mod2_counts == {(1, 1): 16}
    assert b.poincare_poly == (1, 8, 18, 8, 1)


def test_bundle_rejects_diag1():
    with pytest.raises(DomainError):
        bundle(ProductManifold([Diag(1)]))


def test_recover_frozen_examples():
    v = recover(bundle(ProductManifold([ProjLine(), ProjLine(), PQ(1, 1)])))
    assert v == MultiplicityVector(m=2, m_pq={(1, 1): 1})
    v = recover(bundle(ProductManifold([PQ(2, 2), Diag(2)])))
    assert v == MultiplicityVector(m_pq={(2, 2): 1}, n_r={2: 1})
    v = recover(bundle(ProductManifold([FourSphere(), PQ(3, 0)])))
    assert v == MultiplicityVector(m_pq={(3, 0): 1}, n=1)
    assert recover(bundle(ProductManifold([]))) == MultiplicityVector()


def test_recover_separates_pq_orientations():
    # PQ(3,1) and PQ(2,2) share chi but differ in census class
    a = recover(bundle(ProductManifold([PQ(3, 1)])))
    b = recover(bundle(ProductManifold([PQ(2, 2)])))
    assert a == MultiplicityVector(m_pq={(3, 1): 1})
    assert b == MultiplicityVector(m_pq={(2, 2): 1})


def test_recovery_system_determinants():
    # line-class system and each diagonal-class system are nonsingular
    line_system = IntegerMatrix.from_rows([[2, 4], [1, 1]])
    assert determinant(line_system) == -2
    for p in range(1, 11):
        base = 2 ** (2 * p - 1) - 1
        diag_system = IntegerMatrix.from_rows([[1, 1], [base, base + 2 ** (p - 1)]])
        assert determinant(diag_system) == 2 ** (p - 1)


def test_kinds_of_class_is_the_census_relation():
    kinds = [ProjLine(), FourSphere()]
    kinds += [PQ(p, q) for p in range(1, 7) for q in range(p + 1)]
    kinds += [Diag(r) for r in range(2, 7)]
    for k in kinds:
        for c in factor_census(k):
            assert k in _kinds_of_class(c)
    for c in {c for k in kinds for c in factor_census(k)}:
        for k in _kinds_of_class(c):
            assert c in factor_census(k)
    for key in [(0, 0), (2, 1), (-1, 1), (1, 2, 3), "S1xR"]:
        assert _kinds_of_class(key) == ()


def test_recover_roundtrip_random():
    rng = random.Random(111)
    for _ in range(300):
        m_pq = {}
        for _ in range(rng.randint(0, 3)):
            p = rng.randint(1, 5)
            m_pq[(p, rng.randint(0, p))] = rng.randint(1, 3)
        n_r = {}
        for _ in range(rng.randint(0, 2)):
            n_r[rng.randint(2, 5)] = rng.randint(1, 3)
        v = MultiplicityVector(m=rng.randint(0, 3), m_pq=m_pq, n_r=n_r, n=rng.randint(0, 3))
        assert recover(bundle(realize(v))) == v


def brute_force_tail(poly):
    # enumerate every (n, m_p0) assignment whose expansion has the right
    # degree and return all exact matches
    deg = len(poly) - 1
    assert deg % 2 == 0
    slots = deg // 2
    top = poly[1] if len(poly) > 1 else 0
    matches = []
    for n in range(slots + 1):
        remaining = slots - n
        for combo in itertools.combinations_with_replacement(range(1, top + 1), remaining):
            candidate = poly_pow((1, 0, 1), n)
            for p in combo:
                candidate = poly_mul(candidate, (1, p, 1))
            if candidate == tuple(poly):
                m_p0 = {}
                for p in combo:
                    m_p0[p] = m_p0.get(p, 0) + 1
                matches.append((n, m_p0))
    return matches


def test_poincare_tail_matches_brute_force():
    rng = random.Random(222)
    for _ in range(60):
        slots = rng.randint(0, 4)
        n = rng.randint(0, slots)
        m_p0 = {}
        for _ in range(slots - n):
            p = rng.randint(1, 5)
            m_p0[p] = m_p0.get(p, 0) + 1
        poly = poly_pow((1, 0, 1), n)
        for p, c in m_p0.items():
            poly = poly_mul(poly, poly_pow((1, p, 1), c))
        greedy = recover_poincare_tail(poly)
        matches = brute_force_tail(poly)
        assert matches == [greedy] or (len(matches) == 1 and matches[0] == greedy)


def test_poincare_tail_rejects_leftovers():
    with pytest.raises(InconsistentBundleError):
        recover_poincare_tail((1, 0, 0, 1))  # 1 + x^3 has no such factorization
    assert recover_poincare_tail((1,)) == (0, {})
    # The remainder named is what is left after every (1 + x^2) that divides.
    with pytest.raises(InconsistentBundleError, match=r"remainder \[1, 1\] is not"):
        recover_poincare_tail(poly_mul((1, 0, 1), (1, 1)))
    with pytest.raises(InconsistentBundleError, match=r"remainder \[1, 2, 2\] is not"):
        recover_poincare_tail(poly_mul((1, 2, 1), (1, 2, 2)))


def test_poincare_tail_of_sphere_powers_and_negative_linear_terms():
    for n in range(12):
        assert recover_poincare_tail(poly_pow((1, 0, 1), n)) == (n, {})
    assert recover_poincare_tail(poly_mul(poly_pow((1, 0, 1), 3), (1, 4, 1))) == (3, {4: 1})
    # A negative linear coefficient admits no PQ(p, 0) factor, but (1 + x^2)
    # still divides out before the remainder is reported.
    with pytest.raises(InconsistentBundleError, match=r"remainder \[1, -1, 1\] is not"):
        recover_poincare_tail(poly_mul((1, 0, 1), (1, -1, 1)))
    with pytest.raises(InconsistentBundleError, match=r"remainder \[1, -2, 1\] is not"):
        recover_poincare_tail((1, -2, 1))


def test_zero_poincare_polynomial_is_rejected_not_looped_on():
    with pytest.raises(InconsistentBundleError, match=r"remainder \[0\] is not"):
        recover_poincare_tail((0, 0, 0))
    empty = bundle(ProductManifold())
    with pytest.raises(InconsistentBundleError):
        recover(_tampered(empty, poincare_poly=(0,)))


def _tampered(b: InvariantBundle, **changes) -> InvariantBundle:
    fields = {
        "census": b.census,
        "class_mod2_counts": dict(b.class_mod2_counts),
        "poincare_poly": b.poincare_poly,
        "complex_dim": b.complex_dim,
    }
    fields.update(changes)
    return InvariantBundle(**fields)


def test_recover_rejects_inconsistent_bundles():
    b = bundle(ProductManifold([ProjLine(), PQ(1, 1)]))

    # line-class mod-2 count too large: negative CP1 solution
    bad = _tampered(b, class_mod2_counts={LINE: 100})
    with pytest.raises(InconsistentBundleError):
        recover(bad)

    # odd/negative 2*m11
    bad = _tampered(b, class_mod2_counts={LINE: 0})
    with pytest.raises(InconsistentBundleError):
        recover(bad)

    # degree does not match the declared dimension
    bad = _tampered(b, complex_dim=5)
    with pytest.raises(InconsistentBundleError):
        recover(bad)

    # polynomial not divisible by the recovered factors
    bad = _tampered(b, poincare_poly=(1, 0, 0, 0, 1))
    with pytest.raises(InconsistentBundleError):
        recover(bad)

    # mod-2 counts belong only to classes that two kinds share
    for key in [(1, 2), (0, 3), (0, 0), "S1xR"]:
        with pytest.raises(InconsistentBundleError):
            recover(_tampered(b, class_mod2_counts={key: 1}))

    # diagonal system with a non-integral solution
    b2 = bundle(ProductManifold([PQ(2, 2)]))
    bad = _tampered(b2, class_mod2_counts={(1, 1): 8})
    with pytest.raises(InconsistentBundleError):
        recover(bad)

    # odd count on a class that only comes in pairs
    b3 = bundle(ProductManifold([PQ(3, 1)]))
    from fandec.squarezero import RealCensus

    bad = _tampered(b3, census=RealCensus([(0, 2)]))
    with pytest.raises(InconsistentBundleError):
        recover(bad)


def test_same_decomposition():
    a = ProductManifold([ProjLine(), PQ(2, 1)])
    b = ProductManifold([PQ(2, 1), ProjLine()])
    assert same_decomposition(a, b)
    assert not same_decomposition(a, ProductManifold([ProjLine(), PQ(1, 1)]))
    assert not same_decomposition(ProductManifold([ProjLine()]), ProductManifold([PQ(1, 1)]))
    # the normal form of one CP2 and one CP2-bar is literally PQ(1,1)
    assert same_decomposition(
        ProductManifold([normalize(1, 1, 0)]), ProductManifold([PQ(1, 1)])
    )
    with pytest.raises(DomainError):
        same_decomposition(ProductManifold([Diag(1)]), ProductManifold([Diag(1)]))


def test_same_decomposition_iff_bundles_equal():
    # the equivalence must be decided by the bundle, not assumed from it
    rng = random.Random(333)
    kinds = [ProjLine(), FourSphere(), PQ(2, 1), PQ(1, 1), PQ(2, 2), Diag(2), Diag(3)]
    pools = []
    for _ in range(40):
        pools.append(
            ProductManifold([kinds[rng.randrange(len(kinds))] for _ in range(rng.randint(0, 3))])
        )
    for a in pools[:20]:
        for b in pools[20:]:
            assert same_decomposition(a, b) == (bundle(a) == bundle(b))


def test_cancellation_check():
    a = ProductManifold([PQ(2, 2)])
    b = ProductManifold([Diag(2)])
    c = ProductManifold([ProjLine()])
    assert not cancellation_check(a, b, c)
    assert cancellation_check(a, a, c)
    assert cancellation_check(a, a, ProductManifold([]))
    # the distinguishing class: 7 vs 9 in the (1,1) mod-2 slot
    assert bundle(a * c).class_mod2_counts[(1, 1)] == 7
    assert bundle(b * c).class_mod2_counts[(1, 1)] == 9


def test_cancellation_law_is_checked_under_python_O():
    # bundle is patched so that the products' bundles differ while the
    # factors' bundles agree; the check must survive -O, which strips asserts
    code = (
        "import fandec.recovery as r\n"
        "from fandec.squarezero import ProductManifold, ProjLine\n"
        "r.bundle = lambda pm: object() if len(pm) > 1 else None\n"
        "one = ProductManifold([ProjLine()])\n"
        "try:\n"
        "    r.cancellation_check(one, one, one)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "cancellation law violated on this instance\n"


def test_bundle_serialization_canonical():
    b = bundle(ProductManifold([ProjLine(), PQ(3, 1), Diag(3)]))
    text = b.to_text()
    data = json.loads(text)
    assert list(data) == sorted(data)
    assert data["census"] == {"R": 2, "S2xR": 2, "S2xS2xR": 1}
    assert data["complex_dim"] == 5
    # serialization is stable and equality tracks the canonical key
    assert b.to_text() == bundle(ProductManifold([Diag(3), PQ(3, 1), ProjLine()])).to_text()
    assert b.canonical_key() == bundle(ProductManifold([Diag(3), ProjLine(), PQ(3, 1)])).canonical_key()
    assert b == bundle(ProductManifold([PQ(3, 1), ProjLine(), Diag(3)]))
    assert b != bundle(ProductManifold([PQ(3, 1), ProjLine(), Diag(2)]))
