import itertools
import random

import pytest

from fandec.errors import BudgetError, DomainError, ParseError
from fandec.polys import poly_eval
from fandec.squarezero import (
    LINE,
    Diag,
    FourSphere,
    PQ,
    ProductManifold,
    ProjLine,
    QuadraticProfile,
    closed_count_mod2,
    component_label,
    count_square_zero,
    factor_census,
    normalize,
    parse_product,
    poincare,
    product_manifold_profile,
    profile,
    real_census,
    top_invariants,
)


def brute_count(prof: QuadraticProfile, m: int) -> int:
    # reference route: evaluate u^2 over Z via square_of, then reduce
    total = 0
    for coeffs in itertools.product(range(m), repeat=prof.b2):
        if not any(coeffs):
            continue
        if all(x % m == 0 for x in prof.square_of(coeffs)):
            total += 1
    return total


def test_factor_kind_validation():
    with pytest.raises(DomainError):
        PQ(0, 0)
    with pytest.raises(DomainError):
        PQ(1, 2)  # stored with p >= q
    with pytest.raises(DomainError):
        PQ(-1, 0)
    with pytest.raises(DomainError):
        Diag(0)
    with pytest.raises(DomainError):
        PQ(True, False)  # bools are not integers here, as in the fan code
    with pytest.raises(DomainError):
        Diag(True)
    with pytest.raises(DomainError):
        ProductManifold([3])
    with pytest.raises(DomainError):
        profile("CP1")
    assert str(PQ(3, 1)) == "PQ(3,1)"
    assert str(Diag(2)) == "DIAG(2)"
    assert str(ProjLine()) == "CP1"
    assert str(FourSphere()) == "S4"


def test_complex_dims():
    assert ProjLine().complex_dim == 1
    assert PQ(4, 2).complex_dim == 2
    assert Diag(3).complex_dim == 2
    assert FourSphere().complex_dim == 2
    assert ProductManifold([ProjLine(), Diag(2), ProjLine()]).complex_dim == 4


def test_product_manifold_sorts_factors():
    pm = ProductManifold([PQ(1, 1), ProjLine(), ProjLine()])
    assert pm.descriptor() == "CP1^2 * PQ(1,1)"
    assert ProductManifold([]).descriptor() == "1"
    a = ProductManifold([ProjLine()])
    b = ProductManifold([PQ(2, 2)])
    assert (a * b).factors == ProductManifold([PQ(2, 2), ProjLine()]).factors


def test_profile_shapes():
    pr = profile(PQ(2, 1))
    assert pr.labels == ("x1", "x2", "y1")
    assert pr.b4 == 1
    assert pr.products[(0, 0)] == (1,)
    assert pr.products[(2, 2)] == (-1,)
    assert pr.products[(0, 1)] == (0,)
    d = profile(Diag(2))
    assert d.labels == ("z1", "z2", "w1", "w2")
    assert d.products[(0, 2)] == (1,)
    assert d.products[(1, 3)] == (1,)
    assert d.products[(0, 3)] == (0,)
    assert d.products[(0, 0)] == (0,)
    s = profile(FourSphere())
    assert s.b2 == 0 and s.b4 == 1
    line = profile(ProjLine())
    assert line.b2 == 1 and line.b4 == 0


def test_square_of_reference():
    pr = profile(PQ(2, 1))
    # (x1 + y1)^2 = x1^2 + y1^2 + (pair once) = 1 - 1 = 0
    assert pr.square_of((1, 0, 1)) == (0,)
    assert pr.square_of((1, 1, 0)) == (2,)
    d = profile(Diag(1))
    assert d.square_of((1, 1)) == (1,)
    assert d.square_of((1, 0)) == (0,)
    assert d.square_of((2, 3)) == (6,)


def test_count_matches_brute_force_reference():
    cases = [
        (profile(PQ(2, 1)), 2),
        (profile(PQ(2, 1)), 3),
        (profile(Diag(2)), 2),
        (profile(Diag(2)), 3),
        (profile(PQ(3, 0)), 4),
        (product_manifold_profile(ProductManifold([ProjLine(), PQ(1, 1)])), 2),
        (product_manifold_profile(ProductManifold([ProjLine(), PQ(1, 1)])), 3),
        (product_manifold_profile(ProductManifold([Diag(1), FourSphere()])), 5),
    ]
    for prof, m in cases:
        assert count_square_zero(prof, m) == brute_count(prof, m)


def test_closed_form_matches_brute_force_mod2():
    # pure-Python enumeration agrees with the closed form on small alphabets
    small = [ProjLine(), FourSphere()]
    small += [PQ(p, q) for p in range(1, 5) for q in range(0, p + 1) if p + q <= 5]
    small += [Diag(r) for r in range(1, 3)]
    for kind in small:
        assert brute_count(profile(kind), 2) == closed_count_mod2(kind), str(kind)

    # vectorized counter agrees across the full width the counter supports
    wide = [PQ(p, q) for p in range(1, 15) for q in range(0, p + 1) if p + q <= 14]
    wide += [Diag(r) for r in range(1, 8)]
    for kind in wide:
        assert count_square_zero(profile(kind), 2) == closed_count_mod2(kind), str(kind)


def test_closed_form_frozen_values():
    assert closed_count_mod2(ProjLine()) == 1
    assert closed_count_mod2(FourSphere()) == 0
    assert closed_count_mod2(PQ(2, 0)) == 1
    assert closed_count_mod2(PQ(2, 1)) == 3
    assert closed_count_mod2(PQ(3, 3)) == 31
    assert closed_count_mod2(Diag(1)) == 2
    assert closed_count_mod2(Diag(4)) == 135


def test_count_additivity_over_factors():
    # the square-zero classes of a product are exactly the classes supported
    # on a single factor, so counts add
    rng = random.Random(616)
    kinds = [ProjLine(), FourSphere(), PQ(2, 1), PQ(1, 1), PQ(3, 2), Diag(1), Diag(2)]
    for m in (2, 3):
        for _ in range(20):
            factors = []
            while len(factors) < 4:
                k = kinds[rng.randrange(len(kinds))]
                if sum(profile(f).b2 for f in factors) + profile(k).b2 > 12:
                    break
                factors.append(k)
            pm = ProductManifold(factors)
            total = count_square_zero(product_manifold_profile(pm), m)
            assert total == sum(count_square_zero(profile(f), m) for f in factors)


def test_diag_vs_balanced_change_of_variables():
    # over an odd modulus the invertible substitution identifies the two
    # presentations, so the counts agree; over Z/2 they split apart
    for r in (1, 2, 3):
        for m in (3, 5):
            assert count_square_zero(profile(Diag(r)), m) == count_square_zero(
                profile(PQ(r, r)), m
            )
    assert count_square_zero(profile(Diag(2)), 2) == 9
    assert count_square_zero(profile(PQ(2, 2)), 2) == 7


def test_count_threads_agree():
    prof = product_manifold_profile(ProductManifold([PQ(2, 2), Diag(2)]))
    single = count_square_zero(prof, 3, threads=1)
    assert count_square_zero(prof, 3, threads=4) == single
    assert count_square_zero(prof, 3, threads=3) == single


def test_count_budget_error():
    prof = product_manifold_profile(ProductManifold([Diag(4)] * 2))
    with pytest.raises(BudgetError) as err:
        count_square_zero(prof, 3)  # 3^16 states > 2e7
    assert err.value.budget_name == "enumeration_states"
    assert err.value.needed == 3**16
    # a custom budget lifts the cap
    assert count_square_zero(prof, 2, budget=2**17) > 0


def test_count_modulus_validation():
    prof = profile(ProjLine())
    for bad in (1, 0, -2, True):
        with pytest.raises(DomainError):
            count_square_zero(prof, bad)


def test_empty_product_counts_zero():
    prof = product_manifold_profile(ProductManifold([]))
    assert count_square_zero(prof, 2) == 0
    assert count_square_zero(product_manifold_profile(ProductManifold([FourSphere()])), 2) == 0


def test_census_frozen():
    assert factor_census(ProjLine()) == [LINE, LINE]
    assert factor_census(PQ(1, 1)) == [LINE] * 4
    assert factor_census(PQ(3, 0)) == []
    assert factor_census(PQ(3, 1)) == [(0, 2), (0, 2)]
    assert factor_census(PQ(4, 2)) == [(1, 3)]
    assert factor_census(Diag(1)) == [LINE] * 4
    assert factor_census(Diag(3)) == [(2, 2)]
    assert factor_census(FourSphere()) == []
    assert component_label(LINE) == "R"
    assert component_label((0, 2)) == "S2xR"
    assert component_label((1, 3)) == "S1xS3xR"


def test_census_of_products_is_multiset_union():
    rng = random.Random(808)
    kinds = [ProjLine(), FourSphere(), PQ(1, 1), PQ(3, 1), PQ(4, 2), Diag(1), Diag(3)]
    for _ in range(50):
        factors = [kinds[rng.randrange(len(kinds))] for _ in range(rng.randint(0, 4))]
        pm = ProductManifold(factors)
        merged = []
        for f in factors:
            merged.extend(factor_census(f))
        assert real_census(pm).canonical() == real_census(pm).canonical()
        by_union = {}
        for c in merged:
            by_union[c] = by_union.get(c, 0) + 1
        assert dict(real_census(pm).components) == by_union


def test_census_addition_operator():
    a = real_census(ProductManifold([ProjLine()]))
    b = real_census(ProductManifold([Diag(2)]))
    combined = a + b
    assert combined.as_dict() == {"R": 2, "S1xS1xR": 1}
    assert combined.total() == 3
    assert combined.count(LINE) == 2


def test_poincare_frozen():
    assert poincare(ProductManifold([ProjLine()])) == (1, 1)
    assert poincare(ProductManifold([PQ(3, 1)])) == (1, 4, 1)
    assert poincare(ProductManifold([Diag(2)])) == (1, 4, 1)
    assert poincare(ProductManifold([FourSphere()])) == (1, 0, 1)
    assert poincare(ProductManifold([])) == (1,)
    pm = ProductManifold([FourSphere(), PQ(3, 0)])
    assert poincare(pm) == (1, 3, 2, 3, 1)
    # degree always equals the complex dimension
    rng = random.Random(909)
    kinds = [ProjLine(), FourSphere(), PQ(2, 1), Diag(2)]
    for _ in range(30):
        pm = ProductManifold([kinds[rng.randrange(len(kinds))] for _ in range(rng.randint(0, 4))])
        assert len(poincare(pm)) - 1 == pm.complex_dim


def test_poincare_at_one_is_total_rank():
    rng = random.Random(515)
    kinds = [ProjLine(), FourSphere(), PQ(2, 1), PQ(3, 3), Diag(1), Diag(3)]
    for _ in range(30):
        factors = [kinds[rng.randrange(len(kinds))] for _ in range(rng.randint(0, 4))]
        pm = ProductManifold(factors)
        expected = 1
        for f in factors:
            prof = profile(f)
            expected *= 1 + prof.b2 + prof.b4
        assert poly_eval(poincare(pm), 1) == expected


def test_top_invariants_and_normalize():
    assert top_invariants(2, 1, 0) == (5, 1, False)
    assert top_invariants(0, 0, 3) == (8, 0, True)
    assert normalize(1, 0, 1) == PQ(2, 1)
    assert normalize(0, 2, 3) == PQ(5, 3)
    assert normalize(2, 2, 0) == PQ(2, 2)
    assert normalize(0, 0, 0) == FourSphere()
    assert normalize(0, 0, 2) == Diag(2)
    with pytest.raises(DomainError):
        normalize(-1, 0, 0)
    with pytest.raises(DomainError):
        top_invariants(0, -2, 1)


def test_parse_product_round_trip():
    for text in (
        "CP1",
        "CP1^3",
        "PQ(3,1) * CP1",
        "S4 * DIAG(2)^2",
        "1",
        "",
        "  CP1 *  PQ(2, 2) ",
    ):
        pm = parse_product(text)
        assert parse_product(pm.descriptor()).factors == pm.factors


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("CP3", "unknown factor name"),
        ("cp1", "unknown factor name"),
        ("PQ(2", "expected"),
        ("PQ(2,)", "expected"),
        ("PQ(1,2)", "p >= q"),
        ("CP1^", "expected 'int'"),
        ("CP1 CP1", "'*'"),
        ("CP1 & CP1", "unexpected character"),
        ("DIAG()", "expected"),
        ("*", "factor"),
    ],
)
def test_parse_product_errors(text, fragment):
    with pytest.raises((ParseError, DomainError)) as err:
        parse_product(text)
    assert fragment in str(err.value)


def test_parse_product_exponent_zero():
    assert parse_product("CP1^0").factors == ()
    assert parse_product("CP1^0 * S4").descriptor() == "S4"
