import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fandec.errors import BudgetError, DomainError, ParseError
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
    factor_poincare,
    normalize,
    parse_product,
    poincare,
    product_manifold_profile,
    product_profile,
    profile,
    real_census,
    summands,
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


def enumerated(prof: QuadraticProfile) -> QuadraticProfile:
    """The same table without its factor kinds, so that count_square_zero
    enumerates it instead of counting by strata."""
    return replace(prof)


STRATA_KINDS = [
    ProjLine(),
    FourSphere(),
    PQ(1, 0),
    PQ(2, 0),
    PQ(1, 1),
    PQ(2, 1),
    PQ(3, 1),
    Diag(1),
    Diag(2),
]


def capped(factors, cap: int) -> list:
    """The longest prefix of factors whose b2 stays within cap."""
    out, b2 = [], 0
    for f in factors:
        b2 += factor_poincare(f)[1]
        if b2 > cap:
            break
        out.append(f)
    return out


def test_product_profiles_carry_their_kinds():
    pm = parse_product("PQ(2,1) * CP1^2 * S4")
    prof = product_manifold_profile(pm)
    assert prof.kinds == pm.factors
    assert enumerated(prof) == prof and enumerated(prof).kinds is None
    assert profile(PQ(2, 1)).kinds is None
    single = product_manifold_profile(ProductManifold([Diag(2)]))
    assert single.kinds == (Diag(2),) and single == profile(Diag(2))
    assert product_manifold_profile(ProductManifold([])).kinds == ()


def test_factor_kinds_cannot_be_set_or_carried_over_by_hand():
    # a PQ(1, 0) table tagged as CP^1 would count 0 mod 4 instead of 1
    table = profile(PQ(1, 0))
    with pytest.raises(TypeError):
        QuadraticProfile(table.labels, table.b4, table.products, kinds=(ProjLine(),))
    # replace() builds a fresh, untagged profile, so a new table is enumerated
    tagged = product_manifold_profile(ProductManifold([ProjLine()]))
    swapped = replace(tagged, products=table.products, b4=table.b4)
    assert swapped.kinds is None
    assert count_square_zero(swapped, 4) == count_square_zero(table, 4) == 1


def test_strata_count_matches_the_enumerator_at_composite_moduli():
    # CP1 x CP1 mod 4 has the 7 classes (a, b) != 0 with ab = 0 (mod 4), one
    # more than the factor counts 3 + 3: (2, 2) lies on neither factor
    cp1_squared = product_manifold_profile(parse_product("CP1^2"))
    assert count_square_zero(cp1_squared, 4) == 7
    assert count_square_zero(enumerated(cp1_squared), 4) == 7
    assert 2 * count_square_zero(profile(ProjLine()), 4) == 6
    rng = random.Random(4689)
    for m, cap in ((2, 10), (3, 7), (4, 6), (6, 5), (8, 4), (9, 4)):
        for _ in range(30):
            factors = capped([rng.choice(STRATA_KINDS) for _ in range(4)], cap)
            prof = product_manifold_profile(ProductManifold(factors))
            want = count_square_zero(enumerated(prof), m)
            assert count_square_zero(prof, m) == want, (factors, m)


def test_strata_count_of_one_coordinate_at_large_moduli():
    # a lone square is counted from the divisors of m, not from value counts
    for m in range(2, 200):
        for kind in (ProjLine(), PQ(1, 0)):
            prof = product_manifold_profile(ProductManifold([kind, FourSphere()]))
            assert count_square_zero(prof, m) == count_square_zero(profile(kind), m), (kind, m)
    # x^2 = 0 mod 2^24 iff 2^12 | x
    square = product_manifold_profile(ProductManifold([PQ(1, 0)]))
    assert count_square_zero(square, 2**24) == 2**12 - 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(STRATA_KINDS), max_size=4), st.integers(2, 12))
def test_strata_count_property(factors, m):
    cap = max(b for b in range(1, 13) if m**b <= 5000)
    prof = product_manifold_profile(ProductManifold(capped(factors, cap)))
    assert count_square_zero(prof, m) == count_square_zero(enumerated(prof), m)


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
    prof = enumerated(product_manifold_profile(ProductManifold([PQ(2, 2), Diag(2)])))
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


def all_pairs_table(profiles: list) -> dict:
    """Reference product table: one tensor block per pair of factors, empty
    ones included, laid out in one pass over all pairs."""
    b2s = [pr.b2 for pr in profiles]
    b4 = sum(pr.b4 for pr in profiles) + sum(
        b2s[i] * b2s[j] for i in range(len(b2s)) for j in range(i + 1, len(b2s))
    )
    starts2 = [sum(b2s[:i]) for i in range(len(b2s))]
    table = {(a, b): [0] * b4 for a in range(sum(b2s)) for b in range(a, sum(b2s))}
    pos = 0
    for pr, off in zip(profiles, starts2):
        for (i, j), vec in pr.products.items():
            table[(off + i, off + j)][pos : pos + pr.b4] = vec
        pos += pr.b4
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            for a in range(b2s[i]):
                for b in range(b2s[j]):
                    table[(starts2[i] + a, starts2[j] + b)][pos] = 1
                    pos += 1
    return {pair: tuple(vec) for pair, vec in table.items()}


def assert_lazy_table_is_the_eager_one(factors) -> None:
    lazy = product_manifold_profile(ProductManifold(factors))
    eager = product_profile([profile(f) for f in ProductManifold(factors).factors])
    assert (lazy.labels, lazy.b4) == (eager.labels, eager.b4)
    assert dict(lazy.products) == eager.products
    assert list(lazy.products) == list(eager.products)
    assert list(lazy.products.items()) == list(eager.products.items())
    assert lazy == eager and eager == lazy and not lazy != eager
    assert repr(lazy) == repr(eager)
    assert replace(lazy) == eager and repr(replace(lazy)) == repr(eager)


LAZY_CORPUS = [
    [],
    [ProjLine()],
    [FourSphere()],
    [PQ(3, 1)],
    [Diag(2)],
    [FourSphere()] * 3,
    [ProjLine()] * 5,
    [FourSphere(), ProjLine(), FourSphere(), PQ(2, 1), FourSphere()],
    [Diag(1), PQ(1, 0), ProjLine(), ProjLine()],
]


def test_lazy_table_matches_the_eager_build():
    rng = random.Random(7)
    corpus = LAZY_CORPUS + [
        [rng.choice(STRATA_KINDS) for _ in range(rng.randint(0, 6))] for _ in range(60)
    ]
    for factors in corpus:
        assert_lazy_table_is_the_eager_one(factors)
        profiles = [profile(f) for f in ProductManifold(factors).factors]
        if len(profiles) != 1:  # a lone factor keeps its own table
            assert product_profile(profiles).products == all_pairs_table(profiles), factors


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(STRATA_KINDS + [PQ(5, 2), Diag(3)]), max_size=6))
def test_lazy_table_property(factors):
    assert_lazy_table_is_the_eager_one(factors)


def test_counting_a_product_never_builds_its_table(monkeypatch):
    import fandec.squarezero as sz

    def no_table(*args):
        raise AssertionError("the products table was built")

    monkeypatch.setattr(sz, "product_profile", no_table)
    monkeypatch.setattr(sz, "profile", no_table)
    for text, m, want in (("CP1^2", 4, 7), ("DIAG(2) * CP1", 3, 32 + 2), ("S4^2000 * CP1", 2, 1)):
        prof = product_manifold_profile(parse_product(text))
        assert count_square_zero(prof, m) == want, text
    for text, m in (("PQ(288,0)", 2), ("DIAG(144) * S4", 3), ("CP1^25", 2)):
        prof = product_manifold_profile(parse_product(text))
        with pytest.raises(BudgetError):
            count_square_zero(prof, m)
    # a read builds it, through the functions patched away above
    with pytest.raises(AssertionError):
        prof.products[(0, 0)]


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
        assert sum(poincare(pm)) == expected  # the value at x = 1


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


# Per-kind oracles: each factor kind's invariants written out by its own
# branch, as the library computed them before it read the summands (p, q, r).


def oracle_profile(kind) -> QuadraticProfile:
    if isinstance(kind, ProjLine):
        return QuadraticProfile(labels=("x",), b4=0, products={(0, 0): ()})
    if isinstance(kind, PQ):
        p, q = kind.p, kind.q
        labels = tuple(f"x{i+1}" for i in range(p)) + tuple(f"y{j+1}" for j in range(q))
        products = {}
        for i in range(p + q):
            for j in range(i, p + q):
                if i == j:
                    products[(i, j)] = (1,) if i < p else (-1,)
                else:
                    products[(i, j)] = (0,)
        return QuadraticProfile(labels=labels, b4=1, products=products)
    if isinstance(kind, Diag):
        r = kind.r
        labels = tuple(f"z{i+1}" for i in range(r)) + tuple(f"w{i+1}" for i in range(r))
        products = {}
        for i in range(2 * r):
            for j in range(i, 2 * r):
                products[(i, j)] = (1,) if j == i + r else (0,)
        return QuadraticProfile(labels=labels, b4=1, products=products)
    assert isinstance(kind, FourSphere)
    return QuadraticProfile(labels=(), b4=1, products={})


def oracle_census(kind) -> list:
    if isinstance(kind, ProjLine):
        return [LINE, LINE]
    if isinstance(kind, FourSphere):
        return []
    p, q = (kind.p, kind.q) if isinstance(kind, PQ) else (kind.r, kind.r)
    if q == 0:
        return []
    if p == 1 and q == 1:
        return [LINE] * 4
    if q == 1:
        return [(0, p - 1)] * 2
    return [(q - 1, p - 1)]


def oracle_poincare(kind) -> tuple:
    if isinstance(kind, ProjLine):
        return (1, 1)
    if isinstance(kind, PQ):
        return (1, kind.p + kind.q, 1)
    if isinstance(kind, Diag):
        return (1, 2 * kind.r, 1)
    return (1, 0, 1)


def oracle_closed_count_mod2(kind) -> int:
    if isinstance(kind, ProjLine):
        return 1
    if isinstance(kind, PQ):
        return 2 ** (kind.p + kind.q - 1) - 1
    if isinstance(kind, Diag):
        return 2 ** (2 * kind.r - 1) + 2 ** (kind.r - 1) - 1
    return 0


ORACLE_KINDS = (
    [ProjLine(), FourSphere()]
    + [PQ(p, q) for p in range(1, 13) for q in range(p + 1)]
    + [Diag(r) for r in range(1, 13)]
)


def test_invariants_read_from_the_summands_match_the_per_kind_oracles():
    for kind in ORACLE_KINDS:
        got, want = profile(kind), oracle_profile(kind)
        assert (got.labels, got.b4, got.products) == (want.labels, want.b4, want.products), kind
        assert factor_census(kind) == oracle_census(kind), kind
        assert factor_poincare(kind) == oracle_poincare(kind), kind
        count = closed_count_mod2(kind)
        assert type(count) is int and count == oracle_closed_count_mod2(kind), kind


def test_summands_invert_normalize():
    forms = {normalize(p, q, r) for p in range(9) for q in range(9 - p) for r in range(9 - p - q)}
    for kind in forms:
        assert normalize(*summands(kind)) == kind
    assert summands(PQ(3, 1)) == (3, 1, 0)
    assert summands(Diag(2)) == (0, 0, 2)
    assert summands(FourSphere()) == (0, 0, 0)
    for not_a_sum in (ProjLine(), "CP1", (1, 0, 0)):
        with pytest.raises(DomainError):
            summands(not_a_sum)


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


def test_parse_product_refuses_literals_over_the_digit_limit():
    limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter is told otherwise
    assert parse_product(f"PQ({'9' * limit},0)").factors == (PQ(10**limit - 1, 0),)
    with pytest.raises(ParseError) as err:
        parse_product(f"CP1 * PQ({'1' * (limit + 1)},0)")
    assert str(err.value) == (
        f"column 10: integer literal of {limit + 1} digits, "
        f"over the interpreter's {limit}-digit limit"
    )


def test_parse_product_exponent_zero():
    assert parse_product("CP1^0").factors == ()
    assert parse_product("CP1^0 * S4").descriptor() == "S4"
