"""Square-zero cohomology data for the four-dimensional factor classes.

The recognized factors are CP^1 (``ProjLine``), the connected sums
p CP^2 # q CP^2-bar (``PQ(p, q)``), the connected sums r(CP^1 x CP^1)
(``Diag(r)``), and S^4 (``FourSphere``).  Each factor carries a quadratic
profile: a degree-2 basis, a degree-4 basis, and the table of basis-pair
products read off the cohomology ring presentation.  The square of
u = sum c_i x_i is evaluated through the table as

    u^2 = sum over pairs i <= j of c_i * c_j * products[(i, j)],

each unordered pair contributing once, so over Z/m the square-zero
condition is exactly the presented-ring condition (for the diagonal class,
"c_1 d_1 + ... + c_r d_r = 0").

``count_square_zero`` enumerates all coefficient vectors over Z/m in
odometer order (last coordinate fastest) under a hard state budget;
``closed_count_mod2`` is the independent closed-form route the tests play
against it.
"""

from __future__ import annotations

import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

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
        fs = tuple(sorted(factors, key=kind_sort_key))
        for f in fs:
            kind_sort_key(f)
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
    be complete.
    """

    labels: tuple[str, ...]
    b4: int
    products: dict[tuple[int, int], tuple[int, ...]]

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


def profile(kind: FactorKind) -> QuadraticProfile:
    """Quadratic profile of a single factor, from its ring presentation."""
    if isinstance(kind, ProjLine):
        return QuadraticProfile(labels=("x",), b4=0, products={(0, 0): ()})
    if isinstance(kind, PQ):
        p, q = kind.p, kind.q
        labels = tuple(f"x{i+1}" for i in range(p)) + tuple(f"y{j+1}" for j in range(q))
        b2 = p + q
        products = {}
        for i in range(b2):
            for j in range(i, b2):
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
    if isinstance(kind, FourSphere):
        return QuadraticProfile(labels=(), b4=1, products={})
    raise DomainError(f"not a factor kind: {kind!r}")


def product_profile(profiles: list[QuadraticProfile]) -> QuadraticProfile:
    """Combine profiles: degree-4 gains one tensor block per factor pair.

    A cross pair (u from factor i, v from factor j) lands on its tensor
    coordinate with coefficient 1; intra-factor pairs land in the factor's
    own degree-4 block unchanged.
    """
    if not profiles:
        return QuadraticProfile(labels=(), b4=0, products={})
    if len(profiles) == 1:
        return profiles[0]
    k = len(profiles)
    label_offsets = []
    labels: list[str] = []
    for idx, pr in enumerate(profiles):
        label_offsets.append(len(labels))
        labels.extend(f"f{idx+1}.{lab}" for lab in pr.labels)
    b4_offsets = []
    pos = 0
    for pr in profiles:
        b4_offsets.append(pos)
        pos += pr.b4
    tensor_offsets = {}
    for i in range(k):
        for j in range(i + 1, k):
            tensor_offsets[(i, j)] = pos
            pos += profiles[i].b2 * profiles[j].b2
    b4 = pos

    products: dict[tuple[int, int], tuple[int, ...]] = {}
    b2 = len(labels)
    zero = (0,) * b4
    for a in range(b2):
        for b in range(a, b2):
            products[(a, b)] = zero
    for idx, pr in enumerate(profiles):
        off2, off4 = label_offsets[idx], b4_offsets[idx]
        for (i, j), vec in pr.products.items():
            out = [0] * b4
            for t, x in enumerate(vec):
                out[off4 + t] = x
            products[(off2 + i, off2 + j)] = tuple(out)
    for i in range(k):
        for j in range(i + 1, k):
            base = tensor_offsets[(i, j)]
            for a in range(profiles[i].b2):
                for b in range(profiles[j].b2):
                    out = [0] * b4
                    out[base + a * profiles[j].b2 + b] = 1
                    products[(label_offsets[i] + a, label_offsets[j] + b)] = tuple(out)
    return QuadraticProfile(labels=tuple(labels), b4=b4, products=products)


def _count_chunk(b2, b4, pairs, modulus, start, stop) -> int:
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


def count_square_zero(
    p: QuadraticProfile, modulus: int, *, budget: int = STATE_BUDGET, threads: int = 1
) -> int:
    """Count nonzero coefficient vectors over Z/modulus with square zero.

    Exhaustive enumeration in odometer order (last coordinate fastest),
    chunked; the chunk partition never changes the result, so --threads
    parallelism is sound.  Exceeding the state budget raises, it never
    truncates.
    """
    if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
        raise DomainError(f"modulus must be an integer >= 2, got {modulus!r}")
    b2 = p.b2
    states = modulus**b2
    if states > budget:
        raise BudgetError(
            f"enumeration needs {states} states, over the {budget}-state budget",
            budget_name="enumeration_states",
            budget=budget,
            needed=states,
        )
    if b2 == 0:
        return 0
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

    The PQ form 2^(p+q-1) - 1 counts nonzero even-weight vectors; it is
    validated against count_square_zero in the tests before anything
    downstream leans on it.
    """
    if isinstance(kind, ProjLine):
        return 1
    if isinstance(kind, PQ):
        return 2 ** (kind.p + kind.q - 1) - 1
    if isinstance(kind, Diag):
        return 2 ** (2 * kind.r - 1) + 2 ** (kind.r - 1) - 1
    if isinstance(kind, FourSphere):
        return 0
    raise DomainError(f"not a factor kind: {kind!r}")


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

    The sphere product S^(p-1) x S^(q-1) x R splits when a sphere factor
    has dimension zero: one S^0 doubles the component count, two make four
    lines.
    """
    if isinstance(kind, ProjLine):
        return [LINE, LINE]
    if isinstance(kind, PQ):
        p, q = kind.p, kind.q
    elif isinstance(kind, Diag):
        p = q = kind.r  # DIAG(r) has the real form of PQ(r, r)
    elif isinstance(kind, FourSphere):
        return []
    else:
        raise DomainError(f"not a factor kind: {kind!r}")
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
    if isinstance(kind, PQ):
        return (1, kind.p + kind.q, 1)
    if isinstance(kind, Diag):
        return (1, 2 * kind.r, 1)
    if isinstance(kind, FourSphere):
        return (1, 0, 1)
    raise DomainError(f"not a factor kind: {kind!r}")


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
        value, _ = take("int")
        return int(value)

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
    """Profile of the whole product, via product_profile."""
    return product_profile([profile(f) for f in pm.factors])
