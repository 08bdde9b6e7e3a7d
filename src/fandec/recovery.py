"""Recover a product's factor multiset from its cohomological invariants.

The invariant bundle of a product over the recognized alphabet (CP^1,
PQ(p, q), Diag(r) with r >= 2, S^4) consists of the real census, the mod-2
square-zero counts of the census classes that two kinds share, the
Poincare polynomial, and the complex dimension.  These determine the
multiset by one rule per census class:

* each class names the kinds whose census contains it: the line class
  CP^1 and PQ(1, 1), a diagonal class (s, s) PQ(s+1, s+1) and Diag(s+1),
  an off-diagonal class (a, s) only PQ(s+1, a+1);
* the class's census count, and for two kinds its mod-2 count, form a
  linear system in those kinds' counts, solved by Cramer's rule with the
  per-kind census counts and mod-2 closed forms taken from squarezero.
  Worked cases: the line class gives census 2m + 4m11 and mod-2 m + m11
  (determinant -2); a diagonal class, p = s+1, gives census m + n and
  mod-2 (2^(2p-1)-1) m + (2^(2p-1)+2^(p-1)-1) n (determinant 2^(p-1));
  a class (0, s) has census 2m, so its count must be even;
* dividing the recovered factors out of the Poincare polynomial leaves
  (1+x^2)^n * prod (1+px+x^2)^(m_p0), the kinds with an empty census,
  disentangled by greedy exact division with a mandatory
  final-quotient-one check.

A mod-2 count on a class no two kinds share, any non-integral or
negative solution, failed division, or leftover quotient raises
InconsistentBundleError: the bundle cannot come from the alphabet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError, InconsistentBundleError
from .polys import Poly, degree, normalize as poly_normalize, poly_div_exact
from .squarezero import (
    LINE,
    Component,
    Diag,
    FactorKind,
    FourSphere,
    PQ,
    ProductManifold,
    ProjLine,
    RealCensus,
    closed_count_mod2,
    component_label,
    component_sort_key,
    factor_census,
    factor_poincare,
    kind_sort_key,
    poincare,
    real_census,
)


def _ensure_alphabet(pm: ProductManifold) -> None:
    for f in pm.factors:
        if isinstance(f, Diag) and f.r == 1:
            raise DomainError(
                "DIAG(1) is outside the recovery alphabet (it decomposes as CP1 * CP1); "
                "normalize it away before bundling"
            )


@dataclass(eq=True)
class InvariantBundle:
    """Census + restricted mod-2 counts + Poincare polynomial + dimension."""

    census: RealCensus
    class_mod2_counts: dict[Component, int]
    poincare_poly: Poly
    complex_dim: int

    def canonical_key(self) -> tuple:
        return (
            self.census.canonical(),
            tuple(sorted(self.class_mod2_counts.items(), key=lambda kv: component_sort_key(kv[0]))),
            self.poincare_poly,
            self.complex_dim,
        )

    def as_dict(self) -> dict:
        return {
            "census": self.census.as_dict(),
            "class_mod2_counts": {
                component_label(c): n
                for c, n in sorted(
                    self.class_mod2_counts.items(), key=lambda kv: component_sort_key(kv[0])
                )
            },
            "poincare_poly": list(self.poincare_poly),
            "complex_dim": self.complex_dim,
        }

    def to_text(self) -> str:
        """Canonical single-document serialization (sorted keys)."""
        return json.dumps(self.as_dict(), sort_keys=True)


@dataclass(frozen=True, eq=True)
class MultiplicityVector:
    """Factor multiplicities: m CP^1, m_pq PQ factors, n_r Diag factors, n S^4."""

    m: int = 0
    m_pq: dict[tuple[int, int], int] = field(default_factory=dict)
    n_r: dict[int, int] = field(default_factory=dict)
    n: int = 0

    def __post_init__(self):
        for name, v in (("m", self.m), ("n", self.n)):
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"{name} must be a nonnegative integer, got {v!r}")
        pq = {}
        for key, count in self.m_pq.items():
            p, q = key
            if not (p >= q >= 0 and p + q >= 1):
                raise DomainError(f"m_pq key must satisfy p >= q >= 0, p+q >= 1, got {key}")
            if not isinstance(count, int) or count < 0:
                raise DomainError(f"m_pq[{key}] must be a nonnegative integer, got {count!r}")
            if count:
                pq[(p, q)] = count
        nr = {}
        for r, count in self.n_r.items():
            if not isinstance(r, int) or r < 2:
                raise DomainError(f"n_r keys must be integers >= 2 (no DIAG(1)), got {r!r}")
            if not isinstance(count, int) or count < 0:
                raise DomainError(f"n_r[{r}] must be a nonnegative integer, got {count!r}")
            if count:
                nr[r] = count
        object.__setattr__(self, "m_pq", pq)
        object.__setattr__(self, "n_r", nr)

    def __hash__(self):
        return hash(
            (self.m, tuple(sorted(self.m_pq.items())), tuple(sorted(self.n_r.items())), self.n)
        )

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "m_pq": {f"({p},{q})": c for (p, q), c in sorted(self.m_pq.items())},
            "n_r": {str(r): c for r, c in sorted(self.n_r.items())},
            "n": self.n,
        }

    def summary(self) -> str:
        parts = []
        if self.m:
            parts.append(f"m={self.m}")
        for (p, q), c in sorted(self.m_pq.items()):
            parts.append(f"m_{{{p},{q}}}={c}")
        for r, c in sorted(self.n_r.items()):
            parts.append(f"n_{r}={c}")
        if self.n:
            parts.append(f"n={self.n}")
        return ", ".join(parts) if parts else "all zero"


def realize(v: MultiplicityVector) -> ProductManifold:
    """The product manifold with these multiplicities."""
    factors: list[FactorKind] = [ProjLine()] * v.m
    for (p, q), count in sorted(v.m_pq.items()):
        factors.extend([PQ(p, q)] * count)
    for r, count in sorted(v.n_r.items()):
        factors.extend([Diag(r)] * count)
    factors.extend([FourSphere()] * v.n)
    return ProductManifold(factors)


def _vector_of(counts: dict[FactorKind, int]) -> MultiplicityVector:
    m_pq = {(k.p, k.q): c for k, c in counts.items() if isinstance(k, PQ)}
    n_r = {k.r: c for k, c in counts.items() if isinstance(k, Diag)}
    return MultiplicityVector(
        m=counts.get(ProjLine(), 0), m_pq=m_pq, n_r=n_r, n=counts.get(FourSphere(), 0)
    )


def multiplicities_of(pm: ProductManifold) -> MultiplicityVector:
    """Multiplicity vector of an alphabet product (inverse of realize)."""
    _ensure_alphabet(pm)
    return _vector_of(pm.counts())


@lru_cache(maxsize=256)
def _kinds_of_class(c: Component) -> tuple[FactorKind, ...]:
    """The alphabet kinds whose census contains the class c (none for a non-class)."""
    if c == LINE:
        return (ProjLine(), PQ(1, 1))
    if not (isinstance(c, tuple) and len(c) == 2 and all(isinstance(x, int) for x in c)):
        return ()
    a, s = c
    if 1 <= a == s:
        return (PQ(s + 1, s + 1), Diag(s + 1))
    if 0 <= a < s:
        return (PQ(s + 1, a + 1),)
    return ()


@lru_cache(maxsize=256)
def _class_rows(c: Component) -> tuple[tuple[FactorKind, ...], tuple[int, ...], tuple[int, ...]]:
    """The kinds of class c, their census counts of c, and their mod-2 closed forms."""
    kinds = _kinds_of_class(c)
    return (
        kinds,
        tuple(factor_census(k).count(c) for k in kinds),
        tuple(closed_count_mod2(k) for k in kinds),
    )


def _solve_class(c: Component, cen: int, mod: int) -> dict[FactorKind, int]:
    """Factor counts of the kinds of class c, by Cramer's rule.

    A class of one kind solves census = a x.  A class of two kinds adds the
    mod-2 row: census = a1 x1 + a2 x2, mod-2 = b1 x1 + b2 x2.
    """
    kinds, a, b = _class_rows(c)
    if len(kinds) == 1:
        det, nums = a[0], (cen,)
    else:
        det = a[0] * b[1] - a[1] * b[0]
        nums = (cen * b[1] - a[1] * mod, a[0] * mod - b[0] * cen)
    if any(x % det or x // det < 0 for x in nums):
        raise InconsistentBundleError(
            f"class {component_label(c)} counts (census {cen}, mod-2 {mod}) "
            f"admit no nonnegative integral solution"
        )
    return {k: x // det for k, x in zip(kinds, nums) if x}


def bundle(pm: ProductManifold) -> InvariantBundle:
    """Invariant bundle of an alphabet product."""
    _ensure_alphabet(pm)
    mod2: dict[Component, int] = {}
    for kind, count in pm.counts().items():
        for c in set(factor_census(kind)):
            if len(_kinds_of_class(c)) == 2:
                mod2[c] = mod2.get(c, 0) + count * closed_count_mod2(kind)
    return InvariantBundle(
        census=real_census(pm),
        class_mod2_counts=mod2,
        poincare_poly=poincare(pm),
        complex_dim=pm.complex_dim,
    )


def _exact_divide(quotient: Poly, kind: FactorKind, times: int) -> Poly:
    divisor = factor_poincare(kind)
    for _ in range(times):
        nxt = poly_div_exact(quotient, divisor)
        if nxt is None:
            raise InconsistentBundleError(
                f"poincare polynomial is not divisible by the recovered {kind} contribution"
            )
        quotient = nxt
    return quotient


def recover_poincare_tail(poly: Poly) -> tuple[int, dict[int, int]]:
    """Split a polynomial as (1+x^2)^n * prod (1+px+x^2)^(m_p0).

    Greedy exact division, p descending from the linear coefficient (the
    sum of the true p's bounds each of them), then the (1+x^2) power; the
    quotient must finish at 1.
    """
    cur = poly_normalize(poly)
    m_p0: dict[int, int] = {}
    top_linear = cur[1] if len(cur) > 1 else 0
    for p in range(top_linear, 0, -1):
        while True:
            nxt = poly_div_exact(cur, (1, p, 1))
            if nxt is None:
                break
            m_p0[p] = m_p0.get(p, 0) + 1
            cur = nxt
    n = 0
    while cur != (1,):
        nxt = poly_div_exact(cur, (1, 0, 1))
        if nxt is None:
            raise InconsistentBundleError(
                f"poincare remainder {list(cur)} is not a power of the S4 contribution"
            )
        n += 1
        cur = nxt
    return n, m_p0


def recover(b: InvariantBundle) -> MultiplicityVector:
    """Solve the bundle for the unique alphabet multiplicities."""
    census = b.census.components
    mod2 = b.class_mod2_counts
    for c in mod2:
        if len(_kinds_of_class(c)) != 2:
            raise InconsistentBundleError(
                f"mod-2 count attached to {c!r}, which is not a class two kinds share"
            )
    counts: dict[FactorKind, int] = {}
    for c in sorted(set(census) | set(mod2), key=component_sort_key):
        counts.update(_solve_class(c, census.get(c, 0), mod2.get(c, 0)))

    if degree(b.poincare_poly) != b.complex_dim:
        raise InconsistentBundleError(
            f"poincare degree {degree(b.poincare_poly)} does not match "
            f"complex dimension {b.complex_dim}"
        )
    quotient = poly_normalize(b.poincare_poly)
    for kind in sorted(counts, key=kind_sort_key):
        quotient = _exact_divide(quotient, kind, counts[kind])
    n, m_p0 = recover_poincare_tail(quotient)
    counts.update({PQ(p, 0): c for p, c in m_p0.items()})
    counts[FourSphere()] = n
    return _vector_of(counts)


def same_decomposition(a: ProductManifold, b: ProductManifold) -> bool:
    """Whether two alphabet products have equal factor multisets."""
    _ensure_alphabet(a)
    _ensure_alphabet(b)
    return a.factors == b.factors


def cancellation_check(a: ProductManifold, b: ProductManifold, c: ProductManifold) -> bool:
    """same_decomposition(a, b), asserting the cancellation law on this instance:
    the bundles of a*c and b*c agree exactly when the bundles of a and b do."""
    _ensure_alphabet(a)
    _ensure_alphabet(b)
    _ensure_alphabet(c)
    result = same_decomposition(a, b)
    with_c = bundle(a * c) == bundle(b * c)
    without_c = bundle(a) == bundle(b)
    if with_c != without_c:
        raise AssertionError("cancellation law violated on this instance")
    return result
