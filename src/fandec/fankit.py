"""Smooth complete fans: validation, products, factorization, isomorphism.

A fan is stored as primitive integer ray vectors plus maximal cones given as
ray index sets.  Everything is exact: rationality only ever appears through
fraction-free integer elimination, never floating point.

The two nontrivial algorithms:

* ``factorize`` rewrites the rays in the basis formed by one maximal cone.
  In those coordinates a product fan splits the basis directions into blocks
  with every ray supported inside a single block, so the connected components
  of the co-support graph are candidate blocks.  Candidates are certified by
  rebuilding the blocks as fans and checking that their product reproduces
  the input exactly; failed candidates fall back to coarsenings, finest
  first, and the single-block partition always certifies.

* ``isomorphic`` searches for a unimodular change of basis that carries one
  fixed maximal cone of the first fan, ray by ray, onto an ordering of a
  maximal cone of the second.  Any lattice isomorphism of fans acts this way
  on that cone, so trying every cone and every ordering is exhaustive.  Wall
  relations prune the search.  Where the maximal cones tau+v and tau+v' meet
  in the wall tau, v' = c_v v + sum c_w w over the rays w of tau
  (Cox-Little-Schenck, *Toric Varieties*, 6.4), and each ray carries the
  multiset of the relations it takes part in, with its role.  An isomorphism
  maps walls to walls and keeps every coefficient on its ray, so it preserves
  these signatures: fans whose signature multisets differ are rejected at
  once, and a frame that sends a ray to one of another signature is skipped.
  A skipped frame can never succeed and the enumeration order is unchanged,
  so the first certificate found is the one the unpruned search returns.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, DomainError, ParseError
from .lattice import (
    MAX_DIM,
    MAX_ENTRY,
    IntegerMatrix,
    LatticeVector,
    as_vector,
    determinant,
    extends_to_basis,
    is_primitive,
    kernel_basis,
    primitive_part,
    rank,
    smith_normal_form,
    unimodular_inverse,
)

# Cap on intermediate generator counts in the pairwise-face check; honest
# desk-scale fans stay in the tens, so hitting this means pathological input.
PAIRWISE_RAY_BUDGET = 20000
# Cap on the ray subsets the strong-convexity check of a non-simplicial cone
# tries; a 14-ray cone in dimension 8 needs 14 898.
CIRCUIT_BUDGET = 20000


@dataclass(frozen=True, order=True)
class Cone:
    """A cone of a fan, recorded as the sorted tuple of its ray indices."""

    ray_indices: tuple[int, ...]

    def __init__(self, ray_indices: Iterable[int]):
        idx = sorted(set(ray_indices))
        for i in idx:
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise DomainError(f"cone ray indices must be nonnegative integers, got {i!r}")
        if not idx:
            raise DomainError("cones must reference at least one ray")
        object.__setattr__(self, "ray_indices", tuple(idx))

    def __len__(self) -> int:
        return len(self.ray_indices)

    def __iter__(self):
        return iter(self.ray_indices)


# Cones are immutable, so every fan with the same index set holds one object.
# Equal cones are interchangeable: a race between threads only costs memory.
_CONES: "weakref.WeakValueDictionary[tuple[int, ...], Cone]" = weakref.WeakValueDictionary()


def _shared_cone(ray_indices: tuple[int, ...]) -> Cone:
    cone = _CONES.get(ray_indices)
    if cone is None:
        cone = _CONES[ray_indices] = Cone(ray_indices)
    return cone


class Fan:
    """A fan in Z^dim: primitive rays plus maximal cones as ray index sets.

    Construction normalizes: rays are made primitive and deduplicated (cone
    indices are remapped accordingly), duplicate cones collapse.  Structural
    invariants that cannot be normalized away are rejected: a maximal cone
    containing another, or a ray unused by every cone.
    """

    __slots__ = ("dim", "rays", "maximal_cones")

    def __init__(
        self,
        dim: int,
        rays: Sequence[Sequence[int]],
        maximal_cones: Iterable[Iterable[int]],
    ):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise DomainError(f"fan dimension must be a positive integer, got {dim!r}")
        if dim > MAX_DIM:
            raise DomainError(f"fan dimension {dim} exceeds the supported bound {MAX_DIM}")
        raw = [as_vector(r) for r in rays]
        if not raw:
            raise DomainError("fans must have at least one ray")
        canonical: list[LatticeVector] = []
        index_of: dict[LatticeVector, int] = {}
        remap: list[int] = []
        for k, r in enumerate(raw):
            if len(r) != dim:
                raise DomainError(f"rays[{k}]: expected dimension {dim}, got {len(r)}")
            if all(x == 0 for x in r):
                raise DomainError(f"rays[{k}]: the zero vector is not a ray")
            if max(abs(x) for x in r) > MAX_ENTRY:
                raise DomainError(f"rays[{k}]: entry magnitude exceeds the bound {MAX_ENTRY}")
            p = primitive_part(r)
            if p not in index_of:
                index_of[p] = len(canonical)
                canonical.append(p)
            remap.append(index_of[p])

        cones: set[tuple[int, ...]] = set()
        for c, cone in enumerate(maximal_cones):
            idx = list(cone.ray_indices) if isinstance(cone, Cone) else list(cone)
            for i in idx:
                if not isinstance(i, int) or isinstance(i, bool):
                    raise DomainError(f"maximal_cones[{c}]: ray index {i!r} is not an integer")
                if not 0 <= i < len(raw):
                    raise DomainError(
                        f"maximal_cones[{c}]: ray index {i} out of range ({len(raw)} rays)"
                    )
            mapped = tuple(sorted({remap[i] for i in idx}))
            if not mapped:
                raise DomainError(f"maximal_cones[{c}]: cones must reference at least one ray")
            cones.add(mapped)
        if not cones:
            raise DomainError("fans must have at least one maximal cone")

        cone_list = sorted(cones)
        # Distinct cones of one size never contain one another, and in a
        # full-dimensional simplicial fan every cone has dim rays.
        if len({len(c) for c in cone_list}) > 1:
            for a, b in itertools.combinations(cone_list, 2):
                small, big = sorted((a, b), key=len)
                if len(small) < len(big) and set(small) <= set(big):
                    raise DomainError(f"maximal cone {small} is contained in maximal cone {big}")
        used = {i for c in cone_list for i in c}
        for i in range(len(canonical)):
            if i not in used:
                raise DomainError(f"ray {i} {canonical[i]} is not used by any maximal cone")

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", tuple(canonical))
        object.__setattr__(self, "maximal_cones", tuple(_shared_cone(c) for c in cone_list))

    def __setattr__(self, name, value):
        raise AttributeError("Fan is immutable")

    def cone_rays(self, cone: Cone) -> list[LatticeVector]:
        return [self.rays[i] for i in cone.ray_indices]

    def cone_matrix(self, cone: Cone) -> IntegerMatrix:
        """Rays of the cone as matrix columns, in ray-index order."""
        return IntegerMatrix.from_columns(self.cone_rays(cone))

    def support_key(self) -> tuple:
        """Coordinate-wise description that ignores ray numbering."""
        cone_sets = frozenset(frozenset(self.rays[i] for i in c) for c in self.maximal_cones)
        return (self.dim, frozenset(self.rays), cone_sets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fan)
            and self.dim == other.dim
            and self.rays == other.rays
            and self.maximal_cones == other.maximal_cones
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.rays, self.maximal_cones))

    def __repr__(self) -> str:
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, maximal_cones={len(self.maximal_cones)})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the five exact fan checks."""

    strongly_convex: bool
    simplicial: bool
    smooth: bool
    pairwise_faces: bool
    complete: bool

    def all_passed(self) -> bool:
        return (
            self.strongly_convex
            and self.simplicial
            and self.smooth
            and self.pairwise_faces
            and self.complete
        )

    def as_dict(self) -> dict[str, bool]:
        return {
            "strongly_convex": self.strongly_convex,
            "simplicial": self.simplicial,
            "smooth": self.smooth,
            "pairwise_faces": self.pairwise_faces,
            "complete": self.complete,
        }


def _cone_is_strongly_convex(fan: Fan, cone: Cone) -> bool:
    """No nonzero x has both x and -x in the cone.

    Linearly independent generators are always strongly convex.  Otherwise
    the cone fails iff some nontrivial nonnegative combination of generators
    vanishes, and a minimal such dependence is supported on a circuit: a
    subset of size at most dim+1 whose kernel is one line.  Enumerating
    circuits and checking the sign pattern of the kernel line is exact.
    """
    gens = fan.cone_rays(cone)
    if rank(IntegerMatrix.from_columns(gens)) == len(gens):
        return True
    sizes = range(2, min(len(gens), fan.dim + 1) + 1)
    needed = sum(math.comb(len(gens), size) for size in sizes)
    if needed > CIRCUIT_BUDGET:
        raise BudgetError(
            f"strong-convexity check needs {needed} ray subsets, "
            f"over the {CIRCUIT_BUDGET}-subset budget",
            budget_name="circuit_budget",
            budget=CIRCUIT_BUDGET,
            needed=needed,
        )
    for size in sizes:
        for subset in itertools.combinations(gens, size):
            mat = IntegerMatrix.from_columns(subset)
            if rank(mat) != size - 1:
                continue
            (kernel,) = kernel_basis(mat)  # rank size - 1: the kernel is a line
            if all(x > 0 for x in kernel) or all(x < 0 for x in kernel):
                return False
    return True


def _cone_halfspaces(
    fan: Fan, cone: Cone
) -> tuple[list[LatticeVector], list[LatticeVector]]:
    """H-representation (inequalities, equalities) of a simplicial cone.

    With ray matrix V (n x k, independent columns) and Smith certificate
    u @ V @ w == d, the rows of u beyond the rank annihilate span(V), and
    A := w @ diag(prod(d)/d_i) @ u[:k] satisfies A @ V == prod(d) * I, so
    the cone is exactly {x : A x >= 0, E x = 0}.
    """
    v = fan.cone_matrix(cone)
    k = v.cols
    n = v.rows
    snf = smith_normal_form(v)
    diag = [snf.d.entry(i, i) for i in range(k)]
    if any(x == 0 for x in diag):
        raise DomainError("halfspace representation requires a simplicial cone")
    total = 1
    for x in diag:
        total *= x
    scaled = IntegerMatrix(
        [[(total // diag[i]) * snf.u.entry(i, j) for j in range(n)] for i in range(k)]
    )
    ineqs = [row for row in (snf.v @ scaled).entries]
    eqs = [snf.u.row(i) for i in range(k, n)]
    return ineqs, eqs


def _positive_generators(dim: int, constraints: list[tuple[LatticeVector, bool]]) -> list[LatticeVector]:
    """Generators of {x >= 0} cut by the given (row, is_equality) constraints.

    Double description without extremality pruning: correct as a generating
    set, which is all the containment test downstream needs.
    """
    rays: list[LatticeVector] = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    for row, is_eq in constraints:
        passes = [(row, False)] if not is_eq else [(row, False), (tuple(-x for x in row), False)]
        for cut, _ in passes:
            pos, zero, neg = [], [], []
            for r in rays:
                s = sum(a * b for a, b in zip(cut, r))
                (pos if s > 0 else zero if s == 0 else neg).append((r, s))
            kept = [r for r, _ in pos] + [r for r, _ in zero]
            seen = set(kept)
            for (rp, sp), (rn, sn) in itertools.product(pos, neg):
                comb = tuple(sp * b - sn * a for a, b in zip(rp, rn))
                if all(x == 0 for x in comb):
                    continue
                comb = primitive_part(comb)
                if comb not in seen:
                    seen.add(comb)
                    kept.append(comb)
            rays = kept
            if len(rays) > PAIRWISE_RAY_BUDGET:
                raise BudgetError(
                    f"pairwise-face check exceeded the generator budget "
                    f"({len(rays)} > {PAIRWISE_RAY_BUDGET})",
                    budget_name="pairwise_ray_budget",
                    budget=PAIRWISE_RAY_BUDGET,
                    needed=len(rays),
                )
    return rays


def _pair_intersects_in_common_face(
    fan: Fan,
    cone_a: Cone,
    cone_b: Cone,
    hrep_b: tuple[list[LatticeVector], list[LatticeVector]],
) -> bool:
    """Whether cone_a intersect cone_b equals the cone on their shared rays.

    Works in cone_a's generator coordinates: x = V @ lam with lam >= 0, so
    the intersection is the lam-cone cut by cone_b's halfspaces composed
    with V.  The intersection is the common face iff every generator of
    that cone is supported on shared ray positions.
    """
    v = fan.cone_matrix(cone_a)
    shared = set(cone_a.ray_indices) & set(cone_b.ray_indices)
    constraints: list[tuple[LatticeVector, bool]] = []
    ineqs, eqs = hrep_b
    for row in ineqs:
        constraints.append((tuple(sum(row[i] * v.entry(i, t) for i in range(v.rows)) for t in range(v.cols)), False))
    for row in eqs:
        constraints.append((tuple(sum(row[i] * v.entry(i, t) for i in range(v.rows)) for t in range(v.cols)), True))
    for gen in _positive_generators(len(cone_a), constraints):
        for t, coeff in enumerate(gen):
            if coeff != 0 and cone_a.ray_indices[t] not in shared:
                return False
    return True


def _cone_determinants(fan: Fan) -> Optional[list[int]]:
    """Each maximal cone's determinant, or None if a cone has not dim rays."""
    if any(len(cone) != fan.dim for cone in fan.maximal_cones):
        return None
    return [determinant(IntegerMatrix(fan.cone_rays(c))) for c in fan.maximal_cones]


def _facet_cones(fan: Fan) -> dict[tuple[int, ...], list[int]]:
    """Each facet (a maximal cone's rays minus one) with the cones that hold it."""
    facet_cones: dict[tuple[int, ...], list[int]] = {}
    for ci, cone in enumerate(fan.maximal_cones):
        idx = cone.ray_indices
        for p in range(len(idx)):
            facet_cones.setdefault(idx[:p] + idx[p + 1 :], []).append(ci)
    return facet_cones


def _is_complete(fan: Fan, dets: Optional[list[int]]) -> bool:
    """Completeness for full-dimensional simplicial fans.

    Criterion: every maximal cone has dim rays and a nonzero determinant
    (``dets``), every facet (a (dim-1)-subset of a cone's rays) lies in
    exactly two maximal cones, and the facet-adjacency graph is connected.
    """
    if dets is None or 0 in dets:
        return False
    facet_cones = _facet_cones(fan)
    if any(len(cs) != 2 for cs in facet_cones.values()):
        return False
    # Connectivity of the facet-adjacency graph.
    count = len(fan.maximal_cones)
    neighbors: dict[int, set[int]] = {i: set() for i in range(count)}
    for a, b in facet_cones.values():
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in neighbors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == count


def validate(fan: Fan) -> ValidationReport:
    """Run all five exact checks and report each outcome separately.

    The pairwise-face check presumes simplicial cones (non-simplicial fans
    are out of scope); a fan with a non-simplicial maximal cone reports
    pairwise_faces False along with simplicial False.
    """
    simplicial = all(rank(fan.cone_matrix(c)) == len(c) for c in fan.maximal_cones)
    strongly_convex = all(_cone_is_strongly_convex(fan, c) for c in fan.maximal_cones)
    smooth = all(extends_to_basis(fan.cone_rays(c), fan.dim) for c in fan.maximal_cones)
    if simplicial:
        hreps = [_cone_halfspaces(fan, c) for c in fan.maximal_cones]
        pairwise = True
        for a, b in itertools.combinations(range(len(fan.maximal_cones)), 2):
            if not _pair_intersects_in_common_face(
                fan, fan.maximal_cones[a], fan.maximal_cones[b], hreps[b]
            ):
                pairwise = False
                break
    else:
        pairwise = False
    complete = _is_complete(fan, _cone_determinants(fan))
    return ValidationReport(
        strongly_convex=strongly_convex,
        simplicial=simplicial,
        smooth=smooth,
        pairwise_faces=pairwise,
        complete=complete,
    )


def is_smooth_complete(fan: Fan) -> bool:
    """The cheap runtime gate used by product/factorize/isomorphic."""
    dets = _cone_determinants(fan)
    return _is_complete(fan, dets) and all(d in (1, -1) for d in dets)


def _require_smooth_complete(fan: Fan, op: str) -> None:
    if not is_smooth_complete(fan):
        raise DomainError(f"{op} requires a smooth complete fan")


def product(f1: Fan, f2: Fan) -> Fan:
    """Product fan: padded rays side by side, cones all pairwise unions."""
    _require_smooth_complete(f1, "product")
    _require_smooth_complete(f2, "product")
    d1, d2 = f1.dim, f2.dim
    if d1 + d2 > MAX_DIM:
        raise DomainError(f"product dimension {d1 + d2} exceeds the supported bound {MAX_DIM}")
    rays = [r + (0,) * d2 for r in f1.rays] + [(0,) * d1 + r for r in f2.rays]
    offset = len(f1.rays)
    cones = [
        tuple(c1.ray_indices) + tuple(i + offset for i in c2.ray_indices)
        for c1 in f1.maximal_cones
        for c2 in f2.maximal_cones
    ]
    return Fan(d1 + d2, rays, cones)


@dataclass(frozen=True)
class FactorBlock:
    """One indecomposable factor: its fan plus the ambient sub-basis it spans."""

    sub_basis: tuple[LatticeVector, ...]
    factor: Fan


@dataclass(frozen=True)
class FactorizationResult:
    blocks: tuple[FactorBlock, ...]
    change_of_basis: IntegerMatrix


def _set_partitions(items: list) -> list[list[list]]:
    """All partitions of items into unordered nonempty groups."""
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for sub in _set_partitions(rest):
        out.append([[head]] + [list(g) for g in sub])
        for i in range(len(sub)):
            grown = [list(g) for g in sub]
            grown[i] = [head] + grown[i]
            out.append(grown)
    return out


def _verify_partition(
    fan: Fan, rewritten: list[LatticeVector], blocks: list[tuple[int, ...]]
) -> Optional[list[Fan]]:
    """Certify a direction partition by rebuilding blocks and reassembling.

    Returns the block fans (in block order) if the partition exhibits the
    rewritten fan as their product, else None.
    """
    n = fan.dim
    block_of_direction = {}
    for bi, block in enumerate(blocks):
        for t in block:
            block_of_direction[t] = bi

    ray_home: list[int] = []
    local_index: list[int] = []
    block_rays: list[list[LatticeVector]] = [[] for _ in blocks]
    for ray in rewritten:
        support = {t for t, x in enumerate(ray) if x != 0}
        homes = {block_of_direction[t] for t in support}
        if len(homes) != 1:
            return None
        bi = homes.pop()
        ray_home.append(bi)
        local_index.append(len(block_rays[bi]))
        block_rays[bi].append(tuple(ray[t] for t in blocks[bi]))

    block_cones: list[set[tuple[int, ...]]] = [set() for _ in blocks]
    for cone in fan.maximal_cones:
        parts: list[list[int]] = [[] for _ in blocks]
        for i in cone.ray_indices:
            parts[ray_home[i]].append(local_index[i])
        for bi, part in enumerate(parts):
            if len(part) != len(blocks[bi]):
                return None
            block_cones[bi].add(tuple(sorted(part)))

    total = 1
    for cones in block_cones:
        total *= len(cones)
    if total != len(fan.maximal_cones):
        return None

    fans = []
    for bi, block in enumerate(blocks):
        try:
            bf = Fan(len(block), block_rays[bi], sorted(block_cones[bi]))
        except DomainError:
            return None
        if not is_smooth_complete(bf):
            return None
        fans.append(bf)
    return fans


def factorize(fan: Fan) -> FactorizationResult:
    """Split a smooth complete fan into its indecomposable product factors.

    The rays are rewritten in the basis given by the lexicographically least
    maximal cone.  Directions sharing a ray's support must live in the same
    factor, so the support-graph components are the finest candidate blocks;
    coarsenings are tried finest-first until one certifies (the one-block
    partition always does), making the result the finest certified split.
    """
    _require_smooth_complete(fan, "factorize")
    n = fan.dim
    sigma0 = fan.maximal_cones[0]
    basis = fan.cone_matrix(sigma0)
    inverse = unimodular_inverse(basis)
    rewritten = [inverse.apply(r) for r in fan.rays]

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for ray in rewritten:
        support = [t for t, x in enumerate(ray) if x != 0]
        for t in support[1:]:
            union(support[0], t)

    atom_map: dict[int, list[int]] = {}
    for t in range(n):
        atom_map.setdefault(find(t), []).append(t)
    atoms = [tuple(sorted(v)) for v in atom_map.values()]
    atoms.sort(key=lambda a: a[0])

    candidates = _set_partitions(atoms)
    candidates.sort(key=lambda p: (-len(p), sorted(tuple(sorted(sum(g, ()))) for g in p)))
    chosen = None
    block_fans = None
    for grouping in candidates:
        blocks = sorted(tuple(sorted(sum(g, ()))) for g in grouping)
        fans = _verify_partition(fan, rewritten, blocks)
        if fans is not None:
            chosen = blocks
            block_fans = fans
            break
    if chosen is None or block_fans is None:
        raise AssertionError

    blocks_out = []
    columns: list[LatticeVector] = []
    for block, bf in zip(chosen, block_fans):
        sub_basis = tuple(basis.column(t) for t in block)
        columns.extend(sub_basis)
        blocks_out.append(FactorBlock(sub_basis=sub_basis, factor=bf))
    change = IntegerMatrix.from_columns(columns)
    return FactorizationResult(blocks=tuple(blocks_out), change_of_basis=change)


def reassemble(result: FactorizationResult) -> Fan:
    """Product of the blocks, pushed through the change of basis."""
    fans = [b.factor for b in result.blocks]
    combined = fans[0]
    for f in fans[1:]:
        combined = product(combined, f)
    change = result.change_of_basis
    rays = [change.apply(r) for r in combined.rays]
    return Fan(combined.dim, rays, [c.ray_indices for c in combined.maximal_cones])


def _cone_coordinates(
    fan: Fan, facet_cones: dict[tuple[int, ...], list[int]]
) -> list[list[LatticeVector]]:
    """Every ray's coordinates in every maximal cone's basis, by wall crossing.

    ``coords[ci][r]`` holds ray r in the basis of cone ci, taken in
    ray-index order.  The fan must pass the gate; ``facet_cones`` is its
    ``_facet_cones`` map.  One unimodular inverse gives the coordinates in
    cone 0; a depth-first walk then crosses walls, which reaches every cone
    because the adjacency graph is connected.
    Crossing from sigma = tau+v to sigma' = tau+v' is one pivot over all
    rays: if v' has coordinates c in sigma's basis, then c_v = +-1 (both
    determinants are +-1), so dividing by c_v is multiplying by it, and a
    ray with coordinates x gets x_v*c_v on v' and x_w - x_v*c_v*c_w on each
    ray w of tau.
    """
    cones = [c.ray_indices for c in fan.maximal_cones]
    inverse = unimodular_inverse(fan.cone_matrix(fan.maximal_cones[0]))
    coords: list[Optional[list[LatticeVector]]] = [None] * len(cones)
    coords[0] = [inverse.apply(r) for r in fan.rays]
    stack = [0]
    while stack:
        ci = stack.pop()
        cone, here = cones[ci], coords[ci]
        for p in range(len(cone)):
            a, b = facet_cones[cone[:p] + cone[p + 1 :]]
            cj = b if a == ci else a
            if coords[cj] is not None:
                continue
            target = cones[cj]
            new = next(i for i in target if i not in cone)
            c = here[new]
            cv, q = c[p], target.index(new)
            moved = []
            for x in here:
                t = x[p] * cv
                y = [xw - t * cw for xw, cw in zip(x, c)]
                del y[p]
                y.insert(q, t)
                moved.append(tuple(y))
            coords[cj] = moved
            stack.append(cj)
    return coords


def _ray_signatures(fan: Fan) -> list[frozenset]:
    """Each ray's multiset of (wall relation, role) over the ordered walls.

    The ordered wall (sigma, v) of sigma = tau+v has the relation c: the
    coordinates in sigma's basis of the ray v' across the wall.  Its key is
    (c_v, the sorted c_w over the rays w of tau).  The wall counts once for
    v with role "drop", once for v' with role "opposite", and once for each
    w with its own coefficient c_w as role.  The multiset is returned as a
    frozenset of (key, role) -> count items.  The fan must pass the gate.
    """
    cones = [c.ray_indices for c in fan.maximal_cones]
    facet_cones = _facet_cones(fan)
    coords = _cone_coordinates(fan, facet_cones)
    tallies: list[Counter] = [Counter() for _ in fan.rays]
    for ci, cone in enumerate(cones):
        for p, v in enumerate(cone):
            facet = cone[:p] + cone[p + 1 :]
            a, b = facet_cones[facet]
            opposite = next(i for i in cones[b if a == ci else a] if i not in cone)
            c = coords[ci][opposite]
            rest = c[:p] + c[p + 1 :]
            key = (c[p], tuple(sorted(rest)))
            tallies[v][key, "drop"] += 1
            tallies[opposite][key, "opposite"] += 1
            for w, cw in zip(facet, rest):
                tallies[w][key, cw] += 1
    return [frozenset(t.items()) for t in tallies]


def _matching_orders(rays: tuple[int, ...], want: list, signatures: list):
    """Orderings of ``rays`` whose k-th ray has signature want[k].

    They come in the order of ``itertools.permutations(rays)``, which is
    the order the unpruned search tries them in.
    """
    order: list[int] = []
    free = list(rays)

    def extend():
        if not free:
            yield tuple(order)
            return
        wanted = want[len(order)]
        for j, r in enumerate(free):
            if signatures[r] == wanted:
                order.append(free.pop(j))
                yield from extend()
                free.insert(j, order.pop())

    return extend()


def isomorphic(f1: Fan, f2: Fan) -> Optional[IntegerMatrix]:
    """Unimodular map carrying f1 onto f2 (rays to rays, cones to cones).

    Fixes the lexicographically least maximal cone sigma of f1 and tries
    every ray ordering of every maximal cone tau of f2 as its image; any
    fan isomorphism acts this way on sigma, so the search is exhaustive.
    Ray signatures from the wall relations (``_ray_signatures``) prune it:
    an isomorphism maps walls to walls and keeps every relation coefficient
    on its ray, so it preserves signatures.  Hence f1 and f2 with different
    signature multisets are not isomorphic, and a tau or an ordering that
    sends a ray of sigma to a ray of another signature cannot succeed.  The
    frames that remain are tried in the unpruned order with the unpruned
    checks, so the first certificate found is the same.  Returns it, or None.
    """
    _require_smooth_complete(f1, "isomorphic")
    _require_smooth_complete(f2, "isomorphic")
    if f1.dim != f2.dim:
        return None
    if len(f1.rays) != len(f2.rays) or len(f1.maximal_cones) != len(f2.maximal_cones):
        return None
    signatures_1, signatures_2 = _ray_signatures(f1), _ray_signatures(f2)
    if Counter(signatures_1) != Counter(signatures_2):
        return None

    sigma = f1.maximal_cones[0]
    want = [signatures_1[i] for i in sigma.ray_indices]
    want_multiset = Counter(want)
    inverse = unimodular_inverse(f1.cone_matrix(sigma))
    ray_index_2 = {r: i for i, r in enumerate(f2.rays)}
    cone_set_2 = {c.ray_indices for c in f2.maximal_cones}

    for tau in f2.maximal_cones:
        if Counter(signatures_2[i] for i in tau.ray_indices) != want_multiset:
            continue
        for perm in _matching_orders(tau.ray_indices, want, signatures_2):
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


def projective_fan(n: int) -> Fan:
    """The fan with rays e_1..e_n and -(e_1+...+e_n), all n-subsets as cones."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"projective_fan requires a positive integer dimension, got {n!r}")
    if n > MAX_DIM:
        raise DomainError(f"dimension {n} exceeds the supported bound {MAX_DIM}")
    rays = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = list(itertools.combinations(range(n + 1), n))
    return Fan(n, rays, cones)


def hirzebruch(a: int) -> Fan:
    """The four-ray surface fan with rays e1, e2, -e1 + a*e2, -e2."""
    if not isinstance(a, int) or isinstance(a, bool):
        raise DomainError(f"hirzebruch requires an integer parameter, got {a!r}")
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return Fan(2, rays, cones)


def blowup_at_cone(fan: Fan, cone: Cone | Iterable[int]) -> Fan:
    """Star subdivision at a maximal cone: one new ray, the sum of its rays."""
    _require_smooth_complete(fan, "blowup_at_cone")
    target = cone if isinstance(cone, Cone) else Cone(cone)
    if target not in fan.maximal_cones:
        raise DomainError(f"cone {tuple(target)} is not a maximal cone of the fan")
    new_ray = tuple(sum(xs) for xs in zip(*fan.cone_rays(target)))
    rays = list(fan.rays) + [new_ray]
    new_index = len(fan.rays)
    cones: list[tuple[int, ...]] = []
    for c in fan.maximal_cones:
        if c == target:
            for drop in target.ray_indices:
                cones.append(tuple(i for i in c.ray_indices if i != drop) + (new_index,))
        else:
            cones.append(c.ray_indices)
    return Fan(fan.dim, rays, cones)


# --- fan file interface -----------------------------------------------------


def fan_to_dict(fan: Fan) -> dict:
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(c.ray_indices) for c in fan.maximal_cones],
    }


def fan_to_json(fan: Fan) -> str:
    return json.dumps(fan_to_dict(fan), sort_keys=True)


def fan_from_dict(data: object, source: str = "<fan>") -> Fan:
    def fail(path: str, message: str):
        raise ParseError(f"{source}: {path}: {message}")

    if not isinstance(data, dict):
        fail("$", f"expected an object, got {type(data).__name__}")
    for key in ("dim", "rays", "maximal_cones"):
        if key not in data:
            fail("$", f"missing key {key!r}")
    for key in data:
        if key not in ("dim", "rays", "maximal_cones"):
            fail("$", f"unknown key {key!r}")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        fail("dim", f"expected an integer, got {dim!r}")
    rays = data["rays"]
    if not isinstance(rays, list):
        fail("rays", "expected a list of rays")
    seen: dict[tuple, int] = {}
    parsed_rays = []
    for i, ray in enumerate(rays):
        if not isinstance(ray, list):
            fail(f"rays[{i}]", "expected a list of integers")
        if len(ray) != dim:
            fail(f"rays[{i}]", f"expected {dim} coordinates, got {len(ray)}")
        for j, x in enumerate(ray):
            if not isinstance(x, int) or isinstance(x, bool):
                fail(f"rays[{i}][{j}]", f"expected an integer, got {x!r}")
            if abs(x) > MAX_ENTRY:
                fail(f"rays[{i}][{j}]", f"magnitude exceeds the bound {MAX_ENTRY}")
        v = tuple(ray)
        if all(x == 0 for x in v):
            fail(f"rays[{i}]", "the zero vector is not a ray")
        if not is_primitive(v):
            fail(f"rays[{i}]", f"ray {list(v)} is not primitive")
        if v in seen:
            fail(f"rays[{i}]", f"duplicate of rays[{seen[v]}]")
        seen[v] = i
        parsed_rays.append(v)
    cones = data["maximal_cones"]
    if not isinstance(cones, list):
        fail("maximal_cones", "expected a list of index lists")
    for ci, cone in enumerate(cones):
        if not isinstance(cone, list):
            fail(f"maximal_cones[{ci}]", "expected a list of ray indices")
        for cj, idx in enumerate(cone):
            if not isinstance(idx, int) or isinstance(idx, bool):
                fail(f"maximal_cones[{ci}][{cj}]", f"expected an integer, got {idx!r}")
            if not 0 <= idx < len(parsed_rays):
                fail(
                    f"maximal_cones[{ci}][{cj}]",
                    f"ray index {idx} out of range ({len(parsed_rays)} rays)",
                )
    return Fan(dim, parsed_rays, cones)


def fan_from_json(text: str, source: str = "<fan>") -> Fan:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    return fan_from_dict(data, source=source)


def load_fan(path: str) -> Fan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: cannot read fan file: {e.strerror or e}") from e
    return fan_from_json(text, source=path)
