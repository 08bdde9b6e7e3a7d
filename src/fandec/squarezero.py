"""Square-zero cohomology data for the four-dimensional factor classes.

The recognized factors are CP^1 (``ProjLine``) and the simply connected
4-manifolds with a torus action, which by Orlik-Raymond are the connected
sums p CP^2 # q CP^2-bar # r (CP^1 x CP^1): ``PQ(p, q)`` is (p, q, 0),
``Diag(r)`` is (0, 0, r) and ``FourSphere`` is the empty sum (0, 0, 0).
``summands`` reads the triple, and every per-factor invariant below is
computed from it.  Each factor carries a quadratic profile: a degree-2
basis, a degree-4 basis, and the table of basis-pair products read off the
cohomology ring presentation.  The square of u = sum c_i x_i is evaluated
through the table as

    u^2 = sum over pairs i <= j of c_i * c_j * products[(i, j)],

each unordered pair contributing once, so over Z/m the square-zero
condition is exactly the presented-ring condition (for the diagonal class,
"c_1 d_1 + ... + c_r d_r = 0").

A product's profile (``product_manifold_profile``) takes its labels and b4
from the factor kinds and builds its table, O(b2^2) pairs of O(b2^2)
coordinates, only on the first read of ``products``: by ``mf-profile``, a
lookup, ``==``, ``repr`` or ``dataclasses.replace``.  Counting it never
reads the table, nor does a budget refusal.

``count_square_zero`` has two routes, both behind the same state budget.
A profile from ``product_manifold_profile`` knows its factor kinds, and
its count is read off per-factor strata.  A product class u = (x_f) has
u^2 = sum_f Q_f(x_f) on the factors' own blocks plus x_f (x) x_g on one
tensor block per pair f < g, so u^2 = 0 iff every Q_f(x_f) = 0 and
d_f * d_g = 0 (mod m) for f != g, where d_f Z/m is the ideal the entries
of x_f generate (d_f = m for x_f = 0).  Hence

    count + 1 = sum over (d_f) with d_f * d_g = 0 (mod m), f != g,
                of prod_f N_f(d_f),

with N_f(d) the number of x_f of content exactly d Z/m and Q_f(x_f) = 0.
Q_f is p squares, q negative squares and r hyperbolic planes z w (zero
for CP^1), so the number of zeros of Q_f over Z/k is the value at 0 of a
cyclic convolution of per-coordinate value counts (Lidl-Niederreiter,
*Finite Fields*, 6.3); writing x_f = d u turns it into the vectors
divisible by d, and Moebius inversion over the divisors of m gives N_f.
A DP over the factors, keyed by the gcd of the contents used so far,
sums the products.

Any other profile, including ``profile(kind)`` and hand-built tables, is
counted by enumerating all coefficient vectors over Z/m in numpy, in
odometer order (last coordinate fastest).  The enumerator is the only
route for an arbitrary table, and the tests use it as the reference for
the strata; ``closed_count_mod2`` is a third, closed-form route.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import Iterable, NamedTuple, Optional, Union

from .errors import BudgetError, DomainError, ParseError
from .polys import Poly, poly_mul

STATE_BUDGET = 20_000_000
_CHUNK = 1 << 15


# --- factor kinds -----------------------------------------------------------


@dataclass(frozen=True)
class ProjLine:
    """The CP^1 factor (complex dimension 1)."""

    @property
    def complex_dim(self) -> int:
        return 1

    def __str__(self) -> str:
        return "CP1"


@dataclass(frozen=True)
class PQ:
    """Connected sum of p copies of CP^2 and q copies of CP^2-bar.

    Normal-form orientation p >= q >= 0 with p + q >= 1 is required; the
    reversed-orientation manifold is the same class with p and q swapped.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if not (isinstance(p, int) and isinstance(q, int)) or bool in (type(p), type(q)):
            raise DomainError(f"PQ parameters must be integers, got ({p!r}, {q!r})")
        if not (p >= q >= 0 and p + q >= 1):
            raise DomainError(f"PQ requires p >= q >= 0 and p+q >= 1, got PQ({p},{q})")

    @property
    def complex_dim(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"PQ({self.p},{self.q})"


@dataclass(frozen=True)
class Diag:
    """Connected sum of r copies of CP^1 x CP^1 (the spin class)."""

    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise DomainError(f"Diag requires an integer r >= 1, got {self.r!r}")

    @property
    def complex_dim(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"DIAG({self.r})"


@dataclass(frozen=True)
class FourSphere:
    """The S^4 factor (the topological stand-in of complex dimension 2)."""

    @property
    def complex_dim(self) -> int:
        return 2

    def __str__(self) -> str:
        return "S4"


FactorKind = Union[ProjLine, PQ, Diag, FourSphere]


def kind_sort_key(k: FactorKind) -> tuple[int, int, int]:
    if isinstance(k, ProjLine):
        return (0, 0, 0)
    if isinstance(k, PQ):
        return (1, k.p, k.q)
    if isinstance(k, Diag):
        return (2, k.r, 0)
    if isinstance(k, FourSphere):
        return (3, 0, 0)
    raise DomainError(f"not a factor kind: {k!r}")


@dataclass(frozen=True)
class ProductManifold:
    """A finite multiset of factor kinds, stored canonically sorted."""

    factors: tuple[FactorKind, ...]

    def __init__(self, factors: Iterable[FactorKind] = ()):
        fs = tuple(sorted(factors, key=kind_sort_key))  # the key rejects non-kinds
        object.__setattr__(self, "factors", fs)

    @classmethod
    def of(cls, *factors: FactorKind) -> "ProductManifold":
        return cls(factors)

    def __mul__(self, other: "ProductManifold") -> "ProductManifold":
        return ProductManifold(self.factors + other.factors)

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def complex_dim(self) -> int:
        return sum(f.complex_dim for f in self.factors)

    def counts(self) -> Counter:
        return Counter(self.factors)

    def descriptor(self) -> str:
        """Round-trippable text form; the empty product prints as "1"."""
        if not self.factors:
            return "1"
        parts = []
        for kind, count in sorted(self.counts().items(), key=lambda kv: kind_sort_key(kv[0])):
            parts.append(str(kind) if count == 1 else f"{kind}^{count}")
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.descriptor()


# --- quadratic profiles -----------------------------------------------------


@dataclass(frozen=True)
class QuadraticProfile:
    """Degree-2 basis labels, degree-4 rank, and the pair-product table.

    products maps every pair (i, j) with i <= j to the degree-4 coordinate
    vector of the ring product of basis elements i and j; the table must
    be complete.  kinds is set only by ``product_manifold_profile``, to the
    factors the table is the product profile of, in order;
    count_square_zero then counts by strata.  It is not a constructor
    argument, ``dataclasses.replace`` drops it, and equality, hashing and
    validation ignore it.

    ``profile`` and ``product_profile`` give products as a dict.  A profile
    from ``product_manifold_profile`` holds a read-only mapping instead,
    which builds that dict on its first read (a lookup, an iteration,
    ``==``, ``repr`` or ``dataclasses.replace``) and keeps it; counting the
    profile never reads it.
    """

    labels: tuple[str, ...]
    b4: int
    products: Mapping[tuple[int, int], tuple[int, ...]]
    kinds: Optional[tuple[FactorKind, ...]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        b2 = len(self.labels)
        if len(set(self.labels)) != b2:
            raise DomainError("profile labels must be distinct")
        if self.b4 < 0:
            raise DomainError("b4 must be nonnegative")
        expected = {(i, j) for i in range(b2) for j in range(i, b2)}
        if set(self.products) != expected:
            raise DomainError("profile products table must cover every pair i <= j exactly")
        for pair, vec in self.products.items():
            if len(vec) != self.b4:
                raise DomainError(f"products[{pair}] has length {len(vec)}, expected {self.b4}")

    @property
    def b2(self) -> int:
        return len(self.labels)

    def square_of(self, coeffs: Iterable[int]) -> tuple[int, ...]:
        """Reference evaluation of u^2 over Z: one term per unordered pair."""
        c = list(coeffs)
        if len(c) != self.b2:
            raise DomainError(f"expected {self.b2} coefficients, got {len(c)}")
        out = [0] * self.b4
        for (i, j), vec in self.products.items():
            w = c[i] * c[j]
            if w:
                for t, x in enumerate(vec):
                    out[t] += w * x
        return tuple(out)


def summands(kind: FactorKind) -> tuple[int, int, int]:
    """The connected sum (p, q, r) a four-dimensional kind stands for.

    p CP^2 # q CP^2-bar # r (CP^1 x CP^1), with S^4 the empty sum; the
    inverse of ``normalize``.  CP^1 is not a connected sum of these.
    """
    if isinstance(kind, PQ):
        return (kind.p, kind.q, 0)
    if isinstance(kind, Diag):
        return (0, 0, kind.r)
    if isinstance(kind, FourSphere):
        return (0, 0, 0)
    raise DomainError(f"not a four-dimensional factor kind: {kind!r}")


def _factor_basis(kind: FactorKind) -> tuple[tuple[str, ...], int]:
    """Degree-2 labels and b4 of one factor's profile: x for CP^1, else
    x1..xp, y1..yq, z1..zr, w1..wr for the summands (p, q, r), in degree 4
    of rank 1."""
    if isinstance(kind, ProjLine):
        return ("x",), 0
    p, q, r = summands(kind)
    return tuple(f"{x}{i + 1}" for x, n in zip("xyzw", (p, q, r, r)) for i in range(n)), 1


def _product_labels(factor_labels: list[tuple[str, ...]]) -> tuple[str, ...]:
    """Labels of a product: a lone factor keeps its own, else factor i's
    label l becomes f<i+1>.l."""
    if len(factor_labels) == 1:
        return factor_labels[0]
    return tuple(f"f{idx + 1}.{lab}" for idx, labs in enumerate(factor_labels) for lab in labs)


def _degree4_layout(b2s: list[int], b4s: list[int]) -> tuple[list[int], list[int], int]:
    """Where a product's degree-4 blocks start, and its b4.

    Each factor's own block comes first, in factor order, then one tensor
    block of b2_i * b2_j coordinates per pair of factors i < j, in
    lexicographic order.  Returns the start of each factor's own block, the
    start of each factor's row of tensor blocks (its pairs (i, j), j > i),
    and b4.  A factor with b2 = 0 adds no tensor coordinates.
    """
    own, rows = [], []
    pos = 0
    for b4 in b4s:
        own.append(pos)
        pos += b4
    later = sum(b2s)
    for b2 in b2s:
        later -= b2
        rows.append(pos)
        pos += b2 * later
    return own, rows, pos


def profile(kind: FactorKind) -> QuadraticProfile:
    """Quadratic profile of a single factor, from its ring presentation: the
    summands (p, q, r) give x_i^2 = 1, y_j^2 = -1, z_k w_k = 1 and every
    other product 0; CP^1 has x^2 = 0 in degree 4 of rank 0."""
    labels, b4 = _factor_basis(kind)
    if isinstance(kind, ProjLine):
        return QuadraticProfile(labels=labels, b4=b4, products={(0, 0): ()})
    p, q, r = summands(kind)
    b2 = len(labels)
    products = {(i, j): (0,) for i in range(b2) for j in range(i, b2)}
    for i in range(p + q):
        products[(i, i)] = (1,) if i < p else (-1,)
    for k in range(p + q, p + q + r):
        products[(k, k + r)] = (1,)
    return QuadraticProfile(labels=labels, b4=b4, products=products)


def product_profile(profiles: list[QuadraticProfile]) -> QuadraticProfile:
    """Combine profiles: degree-4 gains one tensor block per factor pair.

    A cross pair (u from factor i, v from factor j) lands on its tensor
    coordinate with coefficient 1; intra-factor pairs land in the factor's
    own degree-4 block unchanged.
    """
    if len(profiles) == 1:
        return profiles[0]
    labels = _product_labels([pr.labels for pr in profiles])
    b2s = [pr.b2 for pr in profiles]
    own, rows, b4 = _degree4_layout(b2s, [pr.b4 for pr in profiles])
    label_offsets = []
    pos = 0
    for b2 in b2s:
        label_offsets.append(pos)
        pos += b2

    products: dict[tuple[int, int], tuple[int, ...]] = {}
    b2 = len(labels)
    zero = (0,) * b4
    for a in range(b2):
        for b in range(a, b2):
            products[(a, b)] = zero
    for idx, pr in enumerate(profiles):
        off2, off4 = label_offsets[idx], own[idx]
        for (i, j), vec in pr.products.items():
            out = [0] * b4
            for t, x in enumerate(vec):
                out[off4 + t] = x
            products[(off2 + i, off2 + j)] = tuple(out)
    # factors with b2 = 0 have no tensor blocks, so only the others pair up
    wide = [i for i, n in enumerate(b2s) if n]
    for n, i in enumerate(wide):
        base = rows[i]
        for j in wide[n + 1 :]:
            for a in range(b2s[i]):
                for b in range(b2s[j]):
                    out = [0] * b4
                    out[base + a * b2s[j] + b] = 1
                    products[(label_offsets[i] + a, label_offsets[j] + b)] = tuple(out)
            base += b2s[i] * b2s[j]
    return QuadraticProfile(labels=labels, b4=b4, products=products)


class _ProductTable(Mapping):
    """The products table of a ``product_manifold_profile``: product_profile's
    table of the factor profiles, built on the first read and kept.  It
    compares (as a Mapping) and prints as that dict."""

    __slots__ = ("_kinds", "_table")

    def __init__(self, kinds: tuple[FactorKind, ...]):
        self._kinds = kinds
        self._table: Optional[dict[tuple[int, int], tuple[int, ...]]] = None

    def _built(self) -> dict[tuple[int, int], tuple[int, ...]]:
        if self._table is None:
            self._table = product_profile([profile(f) for f in self._kinds]).products
        return self._table

    def __getitem__(self, pair):
        return self._built()[pair]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


def _count_chunk(b2, b4, pairs, modulus, start, stop) -> int:
    import numpy as np
    ids = np.arange(start, stop, dtype=np.int64)
    coeffs = np.empty((ids.size, b2), dtype=np.int64)
    place = 1
    for t in range(b2 - 1, -1, -1):
        coeffs[:, t] = (ids // place) % modulus
        place *= modulus
    acc = np.zeros((ids.size, b4), dtype=np.int64)
    for i, j, positions, values in pairs:
        term = (coeffs[:, i] * coeffs[:, j]) % modulus
        acc[:, positions] = (acc[:, positions] + term[:, None] * values[None, :]) % modulus
    ok = (acc == 0).all(axis=1)
    ok &= ids != 0
    return int(np.count_nonzero(ok))


def _enumeration_states(b2: int, modulus: int, budget: int = STATE_BUDGET) -> int:
    """modulus**b2, the states of a count over Z/modulus, checked against the
    budget.  It needs b2 alone, so a caller can refuse before it builds a
    profile, even the labels of one; a product profile's table, O(b2^4) in
    size, is built only when read, and counting never reads it."""
    if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
        raise DomainError(f"modulus must be an integer >= 2, got {modulus!r}")
    states = modulus**b2
    if states > budget:
        # Python refuses to write out ints past a few thousand digits.
        shown = states if states.bit_length() < 10_000 else f"{modulus}^{b2}"
        raise BudgetError(
            f"enumeration needs {shown} states, over the {budget}-state budget",
            budget_name="enumeration_states",
            budget=budget,
            needed=states,
        )
    return states


# --- counting by strata -----------------------------------------------------


def _divisors(m: int) -> list[int]:
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Cyclic convolution over Z/k, k = len(a), of two value-count vectors."""
    k = len(a)
    out = [0] * k
    support = [(t, y) for t, y in enumerate(b) if y]
    for s, x in enumerate(a):
        if x:
            for t, y in support:
                out[(s + t) % k] += x * y
    return out


def _power(v: list[int], n: int) -> list[int]:
    """The n-fold cyclic convolution of v, by repeated squaring."""
    out = [1] + [0] * (len(v) - 1)
    while n:
        if n & 1:
            out = _convolve(out, v)
        n >>= 1
        if n:
            v = _convolve(v, v)
    return out


def _zeros(kind: FactorKind, k: int) -> int:
    """The number of x over Z/k with Q(x) = 0 (mod k), for the square form Q
    of one factor: zero on CP^1's one coordinate, else p squares, q
    negative squares and r hyperbolic planes."""
    if isinstance(kind, ProjLine):
        return k
    p, q, r = summands(kind)
    if (p + q, r) == (1, 0):
        # x^2 = 0 iff x is a multiple of the least s with k | s^2.  The budget
        # lets this one b2 = 1 kind reach moduli in the millions, where the
        # value counts below would take O(k) time and memory.
        return k // min(s for s in _divisors(k) if s * s % k == 0)
    dist = [1] + [0] * (k - 1)
    if p or q:
        square = [0] * k
        for x in range(k):
            square[x * x % k] += 1
        negative = [square[-t % k] for t in range(k)]
        dist = _convolve(_power(square, p), _power(negative, q))
    if r:
        # z with gcd(z, k) = g makes z w run over the multiples of g, g times each
        plane = [0] * k
        for g, n in Counter(gcd(z, k) for z in range(k)).items():
            for t in range(0, k, g):
                plane[t] += n * g
        dist = _convolve(dist, _power(plane, r))
    return dist[0]


def _strata(kind: FactorKind, m: int, divisors: list[int]) -> dict[int, int]:
    """N(d) for the divisors d of m: the x over Z/m whose entries generate
    exactly d Z/m and whose square is zero, where N(d) is nonzero."""
    b2 = factor_poincare(kind)[1]
    n: dict[int, int] = {}
    for d in reversed(divisors):
        # x = d u with u over Z/(m/d), and Q(x) = d^2 Q(u) is zero mod m
        # iff Q(u) is zero mod k, which divides m/d.
        k = m // gcd(m, d * d)
        divisible = (m // d // k) ** b2 * _zeros(kind, k)
        n[d] = divisible - sum(c for e, c in n.items() if e % d == 0)
    return {d: c for d, c in n.items() if c}


def _count_by_strata(kinds: Iterable[FactorKind], m: int) -> int:
    """The DP over the factors behind count_square_zero's strata sum.  A
    content d may join those chosen so far iff m | d e for each of them,
    i.e. iff m/d divides their gcd, so the DP keeps only that gcd."""
    divisors = _divisors(m)
    strata: dict[FactorKind, dict[int, int]] = {}
    ways = {m: 1}  # gcd of the contents chosen so far (m for none) -> choices
    for kind in kinds:
        if kind not in strata:
            strata[kind] = _strata(kind, m, divisors)
        step: dict[int, int] = {}
        for g, w in ways.items():
            for d, c in strata[kind].items():
                if g % (m // d) == 0:
                    key = gcd(g, d)
                    step[key] = step.get(key, 0) + w * c
        ways = step
    return sum(ways.values()) - 1


def count_square_zero(
    p: QuadraticProfile, modulus: int, *, budget: int = STATE_BUDGET, threads: int = 1
) -> int:
    """Count nonzero coefficient vectors over Z/modulus with square zero.

    The state budget is checked first on both routes: exceeding it raises,
    it never truncates.  A profile that carries its factor kinds (as
    ``product_manifold_profile`` returns it) is counted from per-factor
    strata, in time polynomial in the factors, b2 and the modulus, and
    without building its products table:

        count + 1 = sum over (d_f) with d_f * d_g = 0 (mod m), f != g,
                    of prod_f N_f(d_f).

    Any other profile is enumerated in odometer order (last coordinate
    fastest), chunked; the chunk partition never changes the result, so
    ``threads`` parallelism is sound.  The enumerator stays because it is
    the only route for an arbitrary product table, and the tests compare
    the strata against it.
    """
    b2 = p.b2
    states = _enumeration_states(b2, modulus, budget)
    if b2 == 0:
        return 0
    if p.kinds is not None:
        return _count_by_strata(p.kinds, modulus)
    import numpy as np  # the enumeration backend, loaded only when counting
    pairs = []
    for (i, j), vec in p.products.items():
        reduced = [x % modulus for x in vec]
        positions = [t for t, x in enumerate(reduced) if x]
        if positions:
            pairs.append(
                (
                    i,
                    j,
                    np.array(positions, dtype=np.intp),
                    np.array([reduced[t] for t in positions], dtype=np.int64),
                )
            )
    if not pairs:
        return states - 1
    ranges = [(s, min(s + _CHUNK, states)) for s in range(0, states, _CHUNK)]

    def work(r):
        return _count_chunk(b2, p.b4, pairs, modulus, r[0], r[1])

    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(work, ranges))
    return sum(work(r) for r in ranges)


def closed_count_mod2(kind: FactorKind) -> int:
    """Closed forms for the mod-2 square-zero counts, per factor.

    Mod 2 a square equals its coefficient, so an odd form (p + q >= 1) is
    isotropic on exactly half the vectors, and r hyperbolic planes alone on
    2^(2r-1) + 2^(r-1), the zero vector included; the tests check both
    against count_square_zero.
    """
    if isinstance(kind, ProjLine):
        return 1
    p, q, r = summands(kind)
    if p + q:
        return 2 ** (p + q + 2 * r - 1) - 1
    return 2 ** (2 * r - 1) + 2 ** (r - 1) - 1 if r else 0


# --- real census ------------------------------------------------------------

# A component of the real square-zero set is either a line (a copy of R) or
# S^a x S^b x R encoded by the pair (a, b), a <= b, with a = 0 meaning the
# degenerate sphere factor has already been split into two components.
LINE = "line"
Component = Union[str, tuple[int, int]]


def component_sort_key(c: Component) -> tuple[int, int, int]:
    if c == LINE:
        return (0, 0, 0)
    a, b = c
    return (1, a, b)


def component_label(c: Component) -> str:
    if c == LINE:
        return "R"
    a, b = c
    if a == 0:
        return f"S{b}xR"
    return f"S{a}xS{b}xR"


class RealCensus:
    """Multiset of connected-component descriptors of the real square-zero set."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Component] = ()):
        counter = Counter()
        for c in components:
            if c != LINE:
                a, b = c
                if not (isinstance(a, int) and isinstance(b, int) and 0 <= a <= b and b >= 1):
                    raise DomainError(f"bad component descriptor {c!r}")
                c = (a, b)
            counter[c] += 1
        object.__setattr__(self, "components", counter)

    def __setattr__(self, name, value):
        raise AttributeError("RealCensus is immutable")

    def __add__(self, other: "RealCensus") -> "RealCensus":
        return RealCensus(list(self.components.elements()) + list(other.components.elements()))

    def count(self, c: Component) -> int:
        return self.components.get(c, 0)

    def total(self) -> int:
        return sum(self.components.values())

    def items(self) -> list[tuple[Component, int]]:
        return sorted(self.components.items(), key=lambda kv: component_sort_key(kv[0]))

    def canonical(self) -> tuple:
        return tuple(self.items())

    def as_dict(self) -> dict[str, int]:
        return {component_label(c): n for c, n in self.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, RealCensus) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        inner = ", ".join(f"{component_label(c)} x{n}" for c, n in self.items())
        return f"RealCensus({inner})"


def factor_census(kind: FactorKind) -> list[Component]:
    """Component descriptors of one factor's real square-zero set.

    The summands (p, q, r) have the real form of PQ(p + r, q + r), and
    S^(p+r-1) x S^(q+r-1) x R splits when a sphere factor has dimension
    zero: one S^0 doubles the component count, two make four lines.
    """
    if isinstance(kind, ProjLine):
        return [LINE, LINE]
    p, q, r = summands(kind)
    p, q = p + r, q + r
    if q == 0:
        return []
    if p == 1 and q == 1:
        return [LINE] * 4
    if q == 1:
        return [(0, p - 1)] * 2
    return [(q - 1, p - 1)]


def real_census(pm: ProductManifold) -> RealCensus:
    """Census of a product: the multiset union of the factor censuses."""
    out: list[Component] = []
    for f in pm.factors:
        out.extend(factor_census(f))
    return RealCensus(out)


# --- classical invariants ---------------------------------------------------


def factor_poincare(kind: FactorKind) -> Poly:
    if isinstance(kind, ProjLine):
        return (1, 1)
    p, q, r = summands(kind)
    return (1, p + q + 2 * r, 1)


def poincare(pm: ProductManifold) -> Poly:
    """Poincare polynomial in a variable tracking cohomological degree 2."""
    out: Poly = (1,)
    for f in pm.factors:
        out = poly_mul(out, factor_poincare(f))
    return out


class TopInvariants(NamedTuple):
    chi: int
    sigma: int
    spin: bool


def _check_pqr(p: int, q: int, r: int) -> None:
    for name, v in (("p", p), ("q", q), ("r", r)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {v!r}")


def top_invariants(p: int, q: int, r: int) -> TopInvariants:
    """Euler characteristic, signature, and spin flag of the connected sum
    of p CP^2, q CP^2-bar, and r copies of CP^1 x CP^1 (S^4 when empty)."""
    _check_pqr(p, q, r)
    return TopInvariants(chi=p + q + 2 * r + 2, sigma=p - q, spin=(p + q == 0))


def normalize(p: int, q: int, r: int) -> FactorKind:
    """Normal form of the connected sum of p CP^2, q CP^2-bar, r (CP^1xCP^1).

    In the non-spin case each CP^1 x CP^1 summand is absorbed into one
    extra CP^2 and one extra CP^2-bar, and orientation reversal puts the
    result in p >= q form; the all-spin cases stay as S^4 or Diag(r).
    """
    _check_pqr(p, q, r)
    if p + q == 0:
        return FourSphere() if r == 0 else Diag(r)
    return PQ(max(p, q) + r, min(p, q) + r)


# --- product-descriptor grammar ---------------------------------------------

_FACTOR_NAMES = {"CP1": (ProjLine, 0), "PQ": (PQ, 2), "DIAG": (Diag, 1), "S4": (FourSphere, 0)}
_TOKEN_RE = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)|(?P<sym>[*^(),])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"column {pos + 1}: unexpected character {ch!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


def parse_product(text: str) -> ProductManifold:
    """Parse "CP1^2 * PQ(2,1) * DIAG(3) * S4" style descriptors.

    Terms are separated by "*", each CP1 | PQ(p,q) | DIAG(r) | S4 with an
    optional "^k" multiplicity; whitespace is insignificant.  The empty
    product is written "1" (or an empty string).
    """
    tokens = _tokenize(text)
    if not tokens:
        return ProductManifold()
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "1":
        return ProductManifold()
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, "end of input", len(text) + 1)

    def take(expected_kind, expected_value=None):
        nonlocal idx
        kind, value, col = peek()
        if kind != expected_kind or (expected_value is not None and value != expected_value):
            want = expected_value if expected_value is not None else expected_kind
            raise ParseError(f"column {col}: expected {want!r}, got {value!r}")
        idx += 1
        return value, col

    def parse_int():
        value, col = take("int")
        try:
            return int(value)
        except ValueError:  # only a literal too long to convert
            raise ParseError(
                f"column {col}: integer literal of {len(value)} digits, over the "
                f"interpreter's {sys.get_int_max_str_digits()}-digit limit"
            ) from None

    factors: list[FactorKind] = []
    while True:
        kind, value, col = peek()
        if kind != "name":
            raise ParseError(
                f"column {col}: expected a factor name (CP1, PQ, DIAG, S4), got {value!r}"
            )
        idx += 1
        if value not in _FACTOR_NAMES:
            raise ParseError(f"column {col}: unknown factor name {value!r}")
        make, arity = _FACTOR_NAMES[value]
        params = []
        for i in range(arity):
            take("sym", "," if i else "(")
            params.append(parse_int())
        if arity:
            take("sym", ")")
        factor = make(*params)
        mult = 1
        if peek()[:2] == ("sym", "^"):
            idx += 1
            mult = parse_int()
        factors.extend([factor] * mult)
        kind, value, col = peek()
        if kind is None:
            break
        take("sym", "*")
    return ProductManifold(factors)


def product_manifold_profile(pm: ProductManifold) -> QuadraticProfile:
    """Profile of the whole product, carrying the factor kinds so that
    count_square_zero counts it by strata.

    Its labels and b4 come from the kinds alone.  Its products table is
    ``product_profile([profile(f) for f in pm.factors]).products``, built
    on the first read (see ``QuadraticProfile``), so counting and budget
    refusals cost O(b2 + factors) instead of the table's O(b2^4).
    """
    bases = [_factor_basis(f) for f in pm.factors]
    b4 = _degree4_layout([len(labels) for labels, _ in bases], [n for _, n in bases])[2]
    # Bypass __post_init__: reading the table there would build it.  The
    # labels are distinct by construction, and product_profile validates
    # the table when it is built.
    prof = object.__new__(QuadraticProfile)
    for name, value in (
        ("labels", _product_labels([labels for labels, _ in bases])),
        ("b4", b4),
        ("products", _ProductTable(pm.factors)),
        ("kinds", pm.factors),
    ):
        object.__setattr__(prof, name, value)
    return prof
