"""The ``fans`` workload: fankit and lattice requests on scrambled products.

Inputs are products of P^1, P^2, P^3, F_0..F_3 and Bl F_0 up to dimension
7, each pushed through ``random_unimodular``, plus perturbed non-fans (one
ray r of a cone replaced by 2r + v for another ray v of that cone, which
makes that cone's determinant +-2) and folded non-fans (the ROADMAP item 2
examples, alone or times a real fan).  Expected answers are frozen from
the construction; certificates are re-applied with exact arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from typing import Optional

from fandec import (
    Fan,
    IntegerMatrix,
    determinant,
    factorize,
    is_smooth_complete,
    isomorphic,
    random_unimodular,
    reassemble,
    smith_normal_form,
    unimodular_inverse,
    validate,
)

NAME = "fans"
# The kernel in reference.py that slows down the way this workload's code does.
REFERENCE = "python"

FOLDED_DEFECT = "the completeness check accepts folded non-fans (ROADMAP open item 2)"

# A raw fan is (dim, rays, cones) with plain tuples; Fan objects are only
# built for the inputs handed to the library.


def _proj(n: int):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return n, rays, list(itertools.combinations(range(n + 1), n))


def _hirzebruch(a: int):
    return 2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]


BASES = {
    "P1": _proj(1),
    "P2": _proj(2),
    "P3": _proj(3),
    "F0": _hirzebruch(0),
    "F1": _hirzebruch(1),
    "F2": _hirzebruch(2),
    "F3": _hirzebruch(3),
    # F_0 blown up at the cone (e1, e2).
    "B": (2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], [(1, 4), (0, 4), (1, 2), (2, 3), (0, 3)]),
}

# Indecomposable blocks of each base as (dim, rays, cones); F_0 = P^1 x P^1.
BLOCKS = {
    "P1": [(1, 2, 2)],
    "P2": [(2, 3, 3)],
    "P3": [(3, 4, 4)],
    "F0": [(1, 2, 2), (1, 2, 2)],
    "F1": [(2, 4, 4)],
    "F2": [(2, 4, 4)],
    "F3": [(2, 4, 4)],
    "B": [(2, 5, 5)],
}

FOLDED = {
    "Fold2": (2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)]),
    "Fold3": (
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        list(itertools.combinations(range(4), 3)),
    ),
}

# Shape pools per request slot.  Shapes in one pool cost about the same.
GATE = [("F2", "P2", "P1"), ("P3", "F2", "P1"), ("F1", "F3", "P2"), ("B", "P2", "P2"), ("B", "F0", "P2")]
FACTOR = [("B", "F0", "P2"), ("F0", "F1", "P1", "P1"), ("B", "F3", "P2"), ("F1", "F2", "F3"), ("P3", "F1", "F3")]
ISO_POS = [("F1", "F2"), ("P2", "F3"), ("B", "P1", "P1"), ("P3", "P1"), ("B", "F2")]
VALIDATE_MID = [("F1", "F2", "P1"), ("B", "F2", "P1"), ("F0", "F3", "P1"), ("B", "B"), ("P2", "F1", "P1")]
VALIDATE_64 = [("F1", "F2", "F3"), ("F1", "F1", "F2"), ("F0", "F1", "F3"), ("F2", "F2", "F3"), ("F0", "F0", "F2")]
# Non-isomorphic pairs, dim 5 with 10 rays and 32 cones on both sides.
ISO_NEG = [
    (("F1", "F1", "P1"), ("F1", "F2", "P1")),
    (("F1", "F3", "P1"), ("F2", "F2", "P1")),
    (("F0", "F1", "P1"), ("F0", "F2", "P1")),
    (("F2", "F3", "P1"), ("F1", "F1", "P1")),
    (("F0", "F3", "P1"), ("F2", "F1", "P1")),
]
PERTURBED = [("F1", "F2", "P1"), ("B", "F2", "P1"), ("P2", "F3", "P1"), ("F0", "F1", "P1"), ("F1", "F1", "P1")]
FOLDS = [("Fold2",), ("Fold3",), ("Fold2", "F1"), ("Fold3", "P1", "P1"), ("Fold2", "P2")]

# One round of 20: (kind, pool, variant).  Seven cheap requests (under
# 5 ms), six factor requests of about 9 ms each, then seven expensive ones.
# So the median falls among the factor requests, and the 90th percentile
# among the three iso_neg requests, the costliest of each round.
SLOTS = [
    ("lattice", None, None),
    ("lattice", None, None),
    ("gate", GATE, "real"),
    ("gate", PERTURBED, "perturbed"),
    ("gate", FOLDS, "folded"),
    ("validate", FOLDS, "folded"),
    ("iso_pos", ISO_POS, "real"),
    ("factor", FACTOR, "real"),
    ("factor", FACTOR, "real"),
    ("factor", FACTOR, "real"),
    ("factor", FACTOR, "real"),
    ("factor", FACTOR, "real"),
    ("factor", FACTOR, "real"),
    ("validate", VALIDATE_MID, "real"),
    ("validate", VALIDATE_MID, "real"),
    ("validate", PERTURBED, "perturbed"),
    ("validate", VALIDATE_64, "real"),
    ("iso_neg", ISO_NEG, "real"),
    ("iso_neg", ISO_NEG, "real"),
    ("iso_neg", ISO_NEG, "real"),
]


def product_of(parts) -> tuple:
    """Product of raw fans: padded rays, every union of one cone per part."""
    dim = sum(p[0] for p in parts)
    rays: list[tuple] = []
    blocks = []
    before = 0
    for d, prays, pcones in parts:
        offset = len(rays)
        rays.extend((0,) * before + tuple(r) + (0,) * (dim - before - d) for r in prays)
        blocks.append([tuple(i + offset for i in c) for c in pcones])
        before += d
    return dim, rays, [sum(combo, ()) for combo in itertools.product(*blocks)]


def raw_product(names) -> tuple:
    return product_of([BASES.get(n) or FOLDED[n] for n in names])


def scrambled(raw, rng: random.Random) -> Fan:
    dim, rays, cones = raw
    u = random_unimodular(dim, rng)
    return Fan(dim, [u.apply(r) for r in rays], cones)


def perturbed(raw, rng: random.Random):
    """Replace ray r of a cone by 2r + v, v another ray of that cone."""
    dim, rays, cones = raw
    while True:
        cone = rng.choice(cones)
        r, v = rng.sample(cone, 2)
        new = tuple(2 * a + b for a, b in zip(rays[r], rays[v]))
        if new not in rays:
            return dim, rays[:r] + [new] + rays[r + 1 :], cones


def _random_matrix(rng: random.Random, n: int) -> IntegerMatrix:
    return IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def make_round(rng: random.Random, index: int) -> list:
    out = []
    for slot, (kind, pool, variant) in enumerate(SLOTS):
        if kind == "lattice":
            n = 6 + slot
            out.append((kind, (_random_matrix(rng, n), random_unimodular(n, rng)), None, {}, None))
            continue
        shape = pool[(index + slot) % len(pool)]
        if kind == "iso_neg":
            left, right = shape
            f1 = scrambled(raw_product(left), rng)
            f2 = scrambled(raw_product(rng.sample(right, len(right))), rng)
            bound = len(f2.maximal_cones) * math.factorial(f2.dim)
            out.append((kind, (f1, f2), None, {"fankit.isomorphic_neg.frames_bound": bound}, None))
            continue
        if kind == "iso_pos":
            f1 = scrambled(raw_product(shape), rng)
            f2 = scrambled(raw_product(rng.sample(shape, len(shape))), rng)
            out.append((kind, (f1, f2), None, {}, None))
            continue
        raw = raw_product(shape)
        known = None
        if variant == "perturbed":
            raw = perturbed(raw, rng)
            expect = {"gate": False, "flags": {"smooth": False}, "valid": False}
        elif variant == "folded":
            expect = {"gate": False, "flags": {"pairwise_faces": False, "complete": False}, "valid": False}
            known = FOLDED_DEFECT
        else:
            expect = {"gate": True, "flags": {}, "valid": True}
        fan = scrambled(raw, rng)
        work = {}
        if kind == "factor":
            expect = sorted(b for name in shape for b in BLOCKS[name])
        elif kind == "validate":
            work = {"fankit.validate.cone_pairs": math.comb(len(fan.maximal_cones), 2)}
        out.append((kind, (fan,), expect, work, known))
    rng.shuffle(out)
    return out


# --- requests: one public call per span ---------------------------------------


def _gate(call, fan):
    return call("fankit.is_smooth_complete", is_smooth_complete, fan)


def _validate(call, fan):
    return call("fankit.validate", validate, fan)


def _factor(call, fan):
    result = call("fankit.factorize", factorize, fan)
    back = call("fankit.reassemble", reassemble, result)
    return result, back.support_key() == fan.support_key()


def _iso_pos(call, f1, f2):
    return call("fankit.isomorphic_pos", isomorphic, f1, f2)


def _iso_neg(call, f1, f2):
    return call("fankit.isomorphic_neg", isomorphic, f1, f2)


def _lattice(call, m, u):
    snf = call("lattice.smith_normal_form", smith_normal_form, m)
    det = call("lattice.determinant", determinant, m)
    inv = call("lattice.unimodular_inverse", unimodular_inverse, u)
    return snf, det, inv


EXECUTORS = {
    "gate": _gate,
    "validate": _validate,
    "factor": _factor,
    "iso_pos": _iso_pos,
    "iso_neg": _iso_neg,
    "lattice": _lattice,
}


# --- independent checks ---------------------------------------------------------


def _rows(m: IntegerMatrix) -> list[list[int]]:
    return [list(r) for r in m.entries]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _support(dim, rays, cones):
    return dim, frozenset(rays), frozenset(frozenset(rays[i] for i in c) for c in cones)


def _check_map(m: IntegerMatrix, f1: Fan, f2: Fan) -> Optional[str]:
    """Whether m is unimodular and carries f1's rays and cones onto f2's."""
    if abs(determinant(m)) != 1:
        return "certificate is not unimodular"
    a = _rows(m)
    image = [_matvec(a, r) for r in f1.rays]
    if _support(f1.dim, image, [c.ray_indices for c in f1.maximal_cones]) != _support(
        f2.dim, list(f2.rays), [c.ray_indices for c in f2.maximal_cones]
    ):
        return "certificate does not map rays and cones onto the target"
    return None


def _check_factor(fan: Fan, expect, answer) -> Optional[str]:
    result, reassembles = answer
    if not reassembles:
        return "reassembly reported a mismatch"
    got = sorted((b.factor.dim, len(b.factor.rays), len(b.factor.maximal_cones)) for b in result.blocks)
    if got != expect:
        return f"blocks {got}, expected {expect}"
    change = result.change_of_basis
    if abs(determinant(change)) != 1:
        return "change of basis is not unimodular"
    # Rebuild the product of the blocks independently and push it through
    # the change of basis; it must be the input fan.
    dim, rays, cones = product_of(
        [(b.factor.dim, b.factor.rays, [c.ray_indices for c in b.factor.maximal_cones]) for b in result.blocks]
    )
    a = _rows(change)
    if _support(dim, [_matvec(a, r) for r in rays], cones) != _support(
        fan.dim, list(fan.rays), [c.ray_indices for c in fan.maximal_cones]
    ):
        return "blocks pushed through the change of basis do not rebuild the fan"
    return None


def _check_lattice(m: IntegerMatrix, u: IntegerMatrix, answer) -> Optional[str]:
    snf, det, inv = answer
    d = _rows(snf.d)
    n = m.rows
    if _matmul(_matmul(_rows(snf.u), _rows(m)), _rows(snf.v)) != d:
        return "u @ m @ v != d"
    if abs(determinant(snf.u)) != 1 or abs(determinant(snf.v)) != 1:
        return "SNF certificates are not unimodular"
    diag = [d[i][i] for i in range(n)]
    if any(d[i][j] for i in range(n) for j in range(n) if i != j) or any(x < 0 for x in diag):
        return "d is not a nonnegative diagonal"
    if any(diag[i] == 0 and diag[i + 1] != 0 or diag[i] and diag[i + 1] % diag[i] for i in range(n - 1)):
        return "d breaks the divisibility chain"
    if abs(det) != math.prod(diag):
        return f"determinant {det} disagrees with the SNF diagonal {diag}"
    if _matmul(_rows(u), _rows(inv)) != [[int(i == j) for j in range(n)] for i in range(n)]:
        return "u @ inverse != identity"
    return None


def check(req, answer) -> Optional[str]:
    """None when the answer is right, else the reason it is wrong."""
    kind, args, expect = req.kind, req.args, req.expect
    if kind == "gate":
        return None if answer is expect["gate"] else f"gate returned {answer}"
    if kind == "validate":
        flags = answer.as_dict()
        wrong = sorted(k for k, v in expect["flags"].items() if flags[k] != v)
        if answer.all_passed() != expect["valid"] or wrong:
            return f"validate flags {flags}"
        return None
    if kind == "factor":
        return _check_factor(args[0], expect, answer)
    if kind == "iso_pos":
        return "no certificate for isomorphic fans" if answer is None else _check_map(answer, *args)
    if kind == "iso_neg":
        return None if answer is None else "certificate returned for non-isomorphic fans"
    if kind == "lattice":
        return _check_lattice(*args, answer)
    raise ValueError(f"unknown request kind {kind!r}")


# --- cold command-line request for setup_s --------------------------------------


def cli_request(out_dir: str):
    """argv of one small ``fan-factor`` call, and a check of its stdout."""
    path = os.path.join(out_dir, "setup-fan.json")
    fan = scrambled(raw_product(("F0", "P1")), random.Random("perfbench:fans:cli"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": fan.dim, "rays": [list(r) for r in fan.rays], "maximal_cones": [list(c.ray_indices) for c in fan.maximal_cones]}, fh)

    def ok(stdout: str) -> bool:
        out = json.loads(stdout)
        return out["reassembles"] is True and len(out["blocks"]) == 3

    return ["fan-factor", path, "--json"], ok
