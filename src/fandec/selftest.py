"""Acceptance suite: one check per advertised guarantee, runnable anywhere.

Each criterion is a no-argument function that raises AssertionError on
failure and returns a one-line detail string on success.  Runtime budgets
are asserted inside the criteria themselves.  All randomness is seeded,
so the suite is deterministic.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .fankit import (
    Fan,
    _set_partitions,
    _verify_partition,
    blowup_at_cone,
    factorize,
    hirzebruch,
    isomorphic,
    product,
    projective_fan,
    reassemble,
)
from .lattice import is_unimodular, random_unimodular, unimodular_inverse
from .polys import Poly, poly_mul, poly_pow
from .recovery import (
    MultiplicityVector,
    bundle,
    multiplicities_of,
    realize,
    recover,
    recover_poincare_tail,
)
from .squarezero import (
    LINE,
    Component,
    Diag,
    FactorKind,
    FourSphere,
    PQ,
    ProductManifold,
    ProjLine,
    closed_count_mod2,
    component_label,
    count_square_zero,
    factor_census,
    normalize,
    product_manifold_profile,
    profile,
    real_census,
    top_invariants,
)

SEED = 20260815


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _within(t0: float, budget: float, label: str) -> float:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, over the {budget:.0f}s budget"
    return elapsed


def check_balanced_sum_mod2_count() -> str:
    """Mod-2 square-zero counts of PQ(p,p) for p = 1..3 hit the closed form."""
    t0 = time.perf_counter()
    got = []
    for p in (1, 2, 3):
        count = count_square_zero(profile(PQ(p, p)), 2)
        expected = 2 ** (2 * p - 1) - 1
        assert count == expected, f"PQ({p},{p}) mod 2: counted {count}, closed form {expected}"
        assert count == closed_count_mod2(PQ(p, p))
        got.append(count)
    assert got == [1, 7, 31]
    elapsed = _within(t0, 1.0, "balanced-sum counting")
    return f"PQ(p,p) mod-2 counts {got} match 2^(2p-1)-1 in {elapsed:.2f}s"


def check_sphere_product_mod2_count() -> str:
    """Mod-2 square-zero counts of Diag(r) for r = 1..4 hit the closed form."""
    t0 = time.perf_counter()
    got = []
    for r in (1, 2, 3, 4):
        count = count_square_zero(profile(Diag(r)), 2)
        expected = 2 ** (2 * r - 1) + 2 ** (r - 1) - 1
        assert count == expected, f"DIAG({r}) mod 2: counted {count}, closed form {expected}"
        assert count == closed_count_mod2(Diag(r))
        got.append(count)
    assert got == [2, 9, 35, 135]
    elapsed = _within(t0, 1.0, "sphere-product counting")
    return f"DIAG(r) mod-2 counts {got} match 2^(2r-1)+2^(r-1)-1 in {elapsed:.2f}s"


def _random_factor(rng: random.Random, cap: int) -> FactorKind:
    """A random factor kind whose b2 does not exceed cap."""
    options: list[FactorKind] = [FourSphere()]
    if cap >= 1:
        options.append(ProjLine())
        total = rng.randint(1, cap)
        q = rng.randint(0, total // 2)
        options.append(PQ(total - q, q))
    if cap >= 2:
        options.append(Diag(rng.randint(1, cap // 2)))
    return rng.choice(options)


def _random_product(rng: random.Random, max_factors: int, b2_cap: int) -> ProductManifold:
    factors = []
    remaining = b2_cap
    for _ in range(rng.randint(1, max_factors)):
        f = _random_factor(rng, remaining)
        factors.append(f)
        remaining -= profile(f).b2
    return ProductManifold(factors)


def check_census_count_additivity() -> str:
    """Square-zero counts of products are the sums of the factor counts."""
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    runs = 0
    for modulus, cap in ((2, 12), (3, 8)):
        for _ in range(50):
            pm = _random_product(rng, 4, cap)
            total = count_square_zero(product_manifold_profile(pm), modulus)
            by_factor = sum(count_square_zero(profile(f), modulus) for f in pm.factors)
            assert total == by_factor, (
                f"{pm.descriptor()} mod {modulus}: product count {total}, "
                f"factor sum {by_factor}"
            )
            runs += 1
    elapsed = _within(t0, 30.0, "additivity sweep")
    return f"{runs} random products additive over Z/2 (b2<=12) and Z/3 (b2<=8) in {elapsed:.1f}s"


def _split_census(p: int, q: int) -> list[Component]:
    """Census of p CP^2 # q CP^2-bar from the generic sphere-pair rule alone:
    one S^(a) x S^(b) x R component, each zero-sphere doubling the count."""
    a, b = sorted((p - 1, q - 1))
    if a == b == 0:
        return [LINE] * 4
    if a == 0:
        return [(0, b)] * 2
    return [(a, b)]


def check_census_component_encoding() -> str:
    """Stated component counts, and agreement of the two PQ(*,1) encodings."""
    assert factor_census(ProjLine()) == [LINE, LINE]
    assert factor_census(PQ(1, 1)) == [LINE] * 4
    for p in range(1, 7):
        assert factor_census(PQ(p, 0)) == []
    for q in range(2, 7):
        comps = factor_census(PQ(q, 1))
        assert comps == [(0, q - 1)] * 2, f"PQ({q},1) census {comps}"
        assert [component_label(c) for c in comps] == [f"S{q - 1}xR"] * 2
    for r in range(2, 6):
        assert factor_census(Diag(r)) == [(r - 1, r - 1)]
    assert factor_census(FourSphere()) == []
    # the dedicated small cases must match the generic sphere-pair rule
    for p in range(1, 7):
        for q in range(1, p + 1):
            assert factor_census(PQ(p, q)) == _split_census(p, q), f"PQ({p},{q})"
    sample = ProductManifold([ProjLine(), PQ(3, 1), Diag(2)])
    counts = real_census(sample).as_dict()
    assert counts == {"R": 2, "S2xR": 2, "S1xS1xR": 1}, counts
    return "component counts and the dual PQ(*,1) encodings agree for p,q <= 6"


_FACTOR_FANS: list[tuple[str, Callable[[], Fan]]] = [
    ("CP1", lambda: projective_fan(1)),
    ("CP2", lambda: projective_fan(2)),
    ("F1", lambda: hirzebruch(1)),
    ("F2", lambda: hirzebruch(2)),
    ("F3", lambda: hirzebruch(3)),
]


def _match_up_to_iso(got: list[Fan], expected: list[Fan]) -> bool:
    if len(got) != len(expected):
        return False
    remaining = list(got)
    for exp in expected:
        for i, g in enumerate(remaining):
            if isomorphic(g, exp) is not None:
                del remaining[i]
                break
        else:
            return False
    return not remaining


def _finest_partitions(fan: Fan) -> tuple[int, int]:
    """Exhaustive oracle: (max block count over all certified direction
    partitions, how many partitions attain it)."""
    basis = fan.cone_matrix(fan.maximal_cones[0])
    inverse = unimodular_inverse(basis)
    rewritten = [inverse.apply(r) for r in fan.rays]
    best = 0
    attained = 0
    for grouping in _set_partitions(list(range(fan.dim))):
        blocks = sorted(tuple(sorted(g)) for g in grouping)
        if _verify_partition(fan, rewritten, blocks) is None:
            continue
        if len(blocks) > best:
            best, attained = len(blocks), 1
        elif len(blocks) == best:
            attained += 1
    return best, attained


def check_fan_factorization_roundtrip() -> str:
    """Scrambled products of small toric surfaces factor back into the
    right multiset; an exhaustive partition oracle agrees in low dimension."""
    t0 = time.perf_counter()
    rng = random.Random(SEED + 5)
    oracle_hits = 0
    for trial in range(100):
        picks = [rng.randrange(len(_FACTOR_FANS)) for _ in range(rng.randint(1, 3))]
        expected = [_FACTOR_FANS[i][1]() for i in picks]
        fan = expected[0]
        for f in expected[1:]:
            fan = product(fan, f)
        u = random_unimodular(fan.dim, rng, max_entry=5)
        scrambled = Fan(
            fan.dim,
            [u.apply(r) for r in fan.rays],
            [c.ray_indices for c in fan.maximal_cones],
        )
        result = factorize(scrambled)
        names = "*".join(_FACTOR_FANS[i][0] for i in picks)
        assert reassemble(result).support_key() == scrambled.support_key(), (
            f"trial {trial} ({names}): reassembled product differs from input"
        )
        got = [b.factor for b in result.blocks]
        assert _match_up_to_iso(got, expected), (
            f"trial {trial} ({names}): recovered {len(got)} blocks, "
            f"multiset does not match"
        )
        if scrambled.dim <= 4:
            best, attained = _finest_partitions(scrambled)
            assert best == len(result.blocks), (
                f"trial {trial} ({names}): oracle finest {best} vs {len(result.blocks)}"
            )
            assert attained == 1, f"trial {trial} ({names}): finest split not unique"
            oracle_hits += 1
    elapsed = _within(t0, 60.0, "factorization sweep")
    return f"100 scrambled products recovered; oracle agreed on {oracle_hits} dim<=4 runs in {elapsed:.1f}s"


def check_hirzebruch_blowup_isomorphism() -> str:
    """a=0 splits into two lines, a=1..3 are indecomposable, and blowing up
    the product surface matches the twice-blown projective plane."""
    cp1 = projective_fan(1)
    f0 = hirzebruch(0)
    blocks = factorize(f0).blocks
    assert len(blocks) == 2 and all(
        isomorphic(b.factor, cp1) is not None for b in blocks
    ), "F0 should split into two CP1 blocks"
    for a in (1, 2, 3):
        got = len(factorize(hirzebruch(a)).blocks)
        assert got == 1, f"F{a} should be a single block, got {got}"

    blown_f0 = blowup_at_cone(f0, f0.maximal_cones[0])
    cp2 = projective_fan(2)
    two_point_blowup = blowup_at_cone(blowup_at_cone(cp2, (0, 1)), (0, 2))
    cert = isomorphic(blown_f0, two_point_blowup)
    assert cert is not None, "blow-up of F0 should match the two-point blow-up of CP2"
    assert is_unimodular(cert)
    # blowing up a point on the exceptional curve instead gives a different fan
    chained = blowup_at_cone(blowup_at_cone(cp2, (0, 1)), (0, 3))
    assert isomorphic(blown_f0, chained) is None, "chained blow-up should not match"
    return "F0 splits, F1..F3 do not, blowup(F0) matches the two-point blowup of CP2"


def _random_vector(rng: random.Random) -> MultiplicityVector:
    m_pq: dict[tuple[int, int], int] = {}
    for _ in range(rng.randint(0, 2)):
        p = rng.randint(1, 5)
        m_pq[(p, rng.randint(0, p))] = rng.randint(1, 3)
    n_r: dict[int, int] = {}
    for _ in range(rng.randint(0, 2)):
        n_r[rng.randint(2, 5)] = rng.randint(1, 3)
    return MultiplicityVector(m=rng.randint(0, 3), m_pq=m_pq, n_r=n_r, n=rng.randint(0, 3))


def _all_low_dim_vectors(max_dim: int = 6, bound: int = 5) -> list[MultiplicityVector]:
    kinds: list[FactorKind] = [FourSphere()]
    kinds += [PQ(p, q) for p in range(1, bound + 1) for q in range(0, p + 1)]
    kinds += [Diag(r) for r in range(2, bound + 1)]
    out = []
    for size in range(0, max_dim // 2 + 1):
        for combo in itertools.combinations_with_replacement(kinds, size):
            for m in range(0, max_dim - 2 * size + 1):
                pm = ProductManifold([ProjLine()] * m + list(combo))
                out.append(multiplicities_of(pm))
                assert pm.complex_dim <= max_dim
    return out


def check_invariant_recovery_roundtrip() -> str:
    """recover(bundle(realize(v))) = v on random vectors, and bundles are
    pairwise distinct across every low-dimensional multiset."""
    t0 = time.perf_counter()
    rng = random.Random(SEED + 7)
    for i in range(1000):
        v = _random_vector(rng)
        back = recover(bundle(realize(v)))
        assert back == v, f"round-trip {i}: {v.summary()} came back as {back.summary()}"
    vectors = _all_low_dim_vectors()
    seen: dict[tuple, MultiplicityVector] = {}
    for v in vectors:
        key = bundle(realize(v)).canonical_key()
        if key in seen:
            assert seen[key] == v, (
                f"bundle collision: {seen[key].summary()} vs {v.summary()}"
            )
        seen[key] = v
    assert len(seen) == len(vectors)
    elapsed = _within(t0, 60.0, "recovery sweep")
    return (
        f"1000 round-trips exact; all {len(vectors)} multisets of complex dim <= 6 "
        f"(parameters <= 5) have distinct bundles in {elapsed:.1f}s"
    )


def _nf_triple(kind: FactorKind) -> tuple[int, int, int]:
    if isinstance(kind, PQ):
        return (kind.p, kind.q, 0)
    if isinstance(kind, Diag):
        return (0, 0, kind.r)
    if isinstance(kind, FourSphere):
        return (0, 0, 0)
    raise AssertionError(f"{kind} is not a connected-sum normal form")


def check_connected_sum_normal_form() -> str:
    """normalize preserves Euler characteristic, |signature| and spin for
    all p+q+r <= 8, and is idempotent."""
    checked = 0
    for p in range(0, 9):
        for q in range(0, 9 - p):
            for r in range(0, 9 - p - q):
                before = top_invariants(p, q, r)
                nf = normalize(p, q, r)
                after = top_invariants(*_nf_triple(nf))
                assert before.chi == after.chi, f"({p},{q},{r}) chi changed"
                assert abs(before.sigma) == abs(after.sigma), f"({p},{q},{r}) |sigma| changed"
                assert before.spin == after.spin, f"({p},{q},{r}) spin changed"
                assert normalize(*_nf_triple(nf)) == nf, f"({p},{q},{r}) not idempotent"
                checked += 1
    assert normalize(1, 0, 1) == PQ(2, 1), "spot value (1,0,1)"
    return f"{checked} triples preserve (chi, |sigma|, spin); normalize idempotent"


def check_poincare_poly_disentangling() -> str:
    """Greedy division recovers random (n, m_p0) assignments of degree <= 8."""
    rng = random.Random(SEED + 9)
    for i in range(50):
        slots = rng.randint(0, 4)
        n = rng.randint(0, slots)
        m_p0: dict[int, int] = {}
        for _ in range(slots - n):
            p = rng.randint(1, 6)
            m_p0[p] = m_p0.get(p, 0) + 1
        poly: Poly = poly_pow((1, 0, 1), n)
        for p, count in m_p0.items():
            poly = poly_mul(poly, poly_pow((1, p, 1), count))
        got_n, got_m = recover_poincare_tail(poly)
        assert (got_n, got_m) == (n, m_p0), (
            f"case {i}: expected n={n}, m={m_p0}, got n={got_n}, m={got_m}"
        )
    return "50 random degree<=8 polynomials disentangled exactly"


CRITERIA: list[tuple[str, Callable[[], str]]] = [
    ("balanced-sum-mod2-count", check_balanced_sum_mod2_count),
    ("sphere-product-mod2-count", check_sphere_product_mod2_count),
    ("census-count-additivity", check_census_count_additivity),
    ("census-component-encoding", check_census_component_encoding),
    ("fan-factorization-roundtrip", check_fan_factorization_roundtrip),
    ("hirzebruch-blowup-isomorphism", check_hirzebruch_blowup_isomorphism),
    ("invariant-recovery-roundtrip", check_invariant_recovery_roundtrip),
    ("connected-sum-normal-form", check_connected_sum_normal_form),
    ("poincare-poly-disentangling", check_poincare_poly_disentangling),
]

CRITERION_NAMES = [name for name, _ in CRITERIA]


def run_criterion(name: str) -> CriterionResult:
    fn = dict(CRITERIA).get(name)
    if fn is None:
        raise ValueError(f"unknown criterion {name!r}; known: {', '.join(CRITERION_NAMES)}")
    t0 = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    except Exception as exc:  # a crash is a failure, not a tool error
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CriterionResult(name, passed, detail, time.perf_counter() - t0)


def run_all(names: Optional[list[str]] = None) -> list[CriterionResult]:
    return [run_criterion(n) for n in (names or CRITERION_NAMES)]


def format_results(results: list[CriterionResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
