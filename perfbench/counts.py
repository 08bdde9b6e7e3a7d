"""The ``counts`` workload: descriptor -> profile -> square-zero count.

Each request parses a seeded descriptor, builds the product profile and
counts square-zero classes with the default thread count, at modulus 2, 3
or 4.  Over-budget descriptors must be refused with ``BudgetError``; some
have b2 in the hundreds, so building the profile is their whole cost.

Counts are checked by routes other than the product enumeration:

* mod 2: the per-factor closed forms, added over factors;
* mod 3: additivity over factors, each factor counted on its own;
* mod 4: a product vector is square-zero iff every factor part is and the
  coefficient ideals d_f Z/4 of any two factors multiply to zero, so
  count + 1 = prod_f (N_f(2) + 1) + sum_f N_f(1), where N_f(d) counts the
  nonzero square-zero vectors of factor f whose entries generate d Z/4,
  enumerated with ``QuadraticProfile.square_of``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import Optional

from fandec import (
    BudgetError,
    Diag,
    FourSphere,
    PQ,
    ProjLine,
    closed_count_mod2,
    count_square_zero,
    parse_product,
    product_manifold_profile,
    profile,
)

NAME = "counts"
# The kernel in reference.py that slows down the way this workload's code does.
REFERENCE = "numpy"

# The enumeration budget the library documents for count_square_zero.
STATE_BUDGET = 20_000_000

# (modulus, [(factor text, multiplicity), ...]); shapes in one pool cost
# about the same.
TINY = [
    (2, [("CP1", 4), ("PQ(2,1)", 1)]),
    (3, [("CP1", 3), ("PQ(2,1)", 1)]),
    (4, [("CP1", 5)]),
    (2, [("DIAG(2)", 1), ("CP1", 3)]),
    (3, [("DIAG(2)", 1), ("CP1", 2)]),
    (4, [("PQ(2,1)", 1), ("CP1", 2)]),
]
# As many shapes as SMALL slots in a round, so every round holds each once.
SMALL = [
    (3, [("PQ(2,1)", 1), ("PQ(3,2)", 1)]),
    (3, [("DIAG(2)", 1), ("PQ(3,1)", 1)]),
    (3, [("CP1", 3), ("PQ(3,2)", 1)]),
    (3, [("PQ(2,2)", 2)]),
    (2, [("PQ(4,4)", 1), ("DIAG(2)", 1)]),
    (2, [("DIAG(3)", 2)]),
]
MEDIUM = [
    (3, [("PQ(3,2)", 1), ("DIAG(2)", 1)]),
    (4, [("DIAG(2)", 2)]),
    (3, [("PQ(5,3)", 1), ("CP1", 2)]),
    (4, [("PQ(3,3)", 1), ("CP1", 2)]),
    (3, [("DIAG(2)", 2), ("CP1", 1)]),
    (4, [("CP1", 4), ("PQ(2,2)", 1)]),
]
LARGE = [
    (4, [("PQ(3,3)", 1), ("CP1", 3)]),
    (4, [("DIAG(2)", 1), ("PQ(3,2)", 1)]),
    (4, [("DIAG(3)", 1), ("PQ(2,1)", 1)]),
]
XL = [
    (3, [("CP1", 12)]),
    (3, [("DIAG(3)", 1), ("PQ(3,3)", 1)]),
    (3, [("CP1", 8), ("DIAG(2)", 1)]),
    (3, [("PQ(2,1)", 3), ("CP1", 3)]),
]
# Over budget with a small b2: refused after a cheap profile.
OVER_SMALL = [
    (2, [("CP1", 25)]),
    (3, [("PQ(9,8)", 1)]),
    (4, [("PQ(7,6)", 1)]),
    (3, [("DIAG(4)", 1), ("CP1", 8)]),
]

# One round: percentiles fall inside same-cost groups (ranks 7-12 are
# SMALL, ranks 17-19 LARGE).
SLOTS = ["tiny"] * 4 + ["over_small"] * 2 + ["small"] * 6 + ["medium"] * 3 + ["over_huge"] + ["large"] * 3 + ["xl"]
POOLS = {"tiny": TINY, "small": SMALL, "medium": MEDIUM, "large": LARGE, "xl": XL, "over_small": OVER_SMALL}


def factor_parts(text: str) -> tuple[str, tuple[int, ...]]:
    """("PQ", (3, 1)) for "PQ(3,1)", ("CP1", ()) for "CP1"."""
    if "(" not in text:
        return text, ()
    name, inner = text.rstrip(")").split("(")
    return name, tuple(int(x) for x in inner.split(","))


def kind_of(text: str):
    """Factor kind of one factor text, built by the benchmark itself."""
    name, nums = factor_parts(text)
    return {"CP1": ProjLine, "S4": FourSphere, "PQ": PQ, "DIAG": Diag}[name](*nums)


def b2_of(text: str) -> int:
    name, nums = factor_parts(text)
    return {"CP1": 1, "S4": 0, "PQ": sum(nums), "DIAG": 2 * sum(nums)}[name]


def spell(shape, rng: random.Random) -> str:
    """A seeded spelling of a factor multiset: split powers, order, spacing."""
    terms = []
    for text, k in shape:
        parts = [k]
        if k > 1 and rng.random() < 0.5:
            a = rng.randint(1, k - 1)
            parts = [a, k - a]
        for part in parts:
            terms.append(text if part == 1 and rng.random() < 0.5 else f"{text}^{part}")
    rng.shuffle(terms)
    return rng.choice([" * ", "*", " *  "]).join(terms)


def _huge_shape(rng: random.Random):
    """b2 = 288 in one factor, so building its profile costs tens of ms."""
    modulus = rng.choice((2, 3, 4))
    if rng.random() < 0.25:
        return modulus, [("DIAG(144)", 1)]
    q = rng.randint(0, 144)
    extra = [("S4", 1)] if rng.random() < 0.5 else []
    return modulus, [(f"PQ({288 - q},{q})", 1)] + extra


def make_round(rng: random.Random, index: int) -> list:
    out = []
    for slot, cls in enumerate(SLOTS):
        if cls == "over_huge":
            modulus, shape = _huge_shape(rng)
        else:
            pool = POOLS[cls]
            modulus, shape = pool[(index + slot) % len(pool)]
        states = modulus ** sum(b2_of(t) * k for t, k in shape)
        expect = {"modulus": modulus, "factors": shape, "states": states}
        work = {} if states > STATE_BUDGET else {"squarezero.count_square_zero.states": states}
        out.append(("count", (spell(shape, rng), modulus), expect, work, None))
    rng.shuffle(out)
    return out


def _count(call, text: str, modulus: int):
    pm = call("squarezero.parse_product", parse_product, text)
    prof = call("squarezero.product_manifold_profile", product_manifold_profile, pm)
    try:
        n = call("squarezero.count_square_zero", count_square_zero, prof, modulus)
    except BudgetError as exc:
        return ("refused", exc.needed, exc.budget)
    closed = None
    if modulus == 2:
        closed = sum(call("squarezero.closed_count_mod2", closed_count_mod2, f) for f in pm.factors)
    return ("count", n, closed)


EXECUTORS = {"count": _count}


# --- independent checks -----------------------------------------------------------


def _mod2_closed(text: str) -> int:
    name, nums = factor_parts(text)
    if name == "PQ":
        return 2 ** (sum(nums) - 1) - 1
    if name == "DIAG":
        return 2 ** (2 * nums[0] - 1) + 2 ** (nums[0] - 1) - 1
    return int(name == "CP1")


_factor_mod3: dict = {}
_factor_mod4: dict = {}


def _mod3(text: str) -> int:
    if text not in _factor_mod3:
        _factor_mod3[text] = count_square_zero(profile(kind_of(text)), 3)
    return _factor_mod3[text]


def _strata_mod4(text: str) -> tuple[int, int]:
    """(N(1), N(2)) of one factor at modulus 4, by square_of enumeration."""
    if text not in _factor_mod4:
        prof = profile(kind_of(text))
        n = [0, 0, 0, 0, 0]
        for vec in itertools.product(range(4), repeat=prof.b2):
            if any(vec) and all(x % 4 == 0 for x in prof.square_of(vec)):
                n[math.gcd(4, *vec)] += 1
        _factor_mod4[text] = (n[1], n[2])
    return _factor_mod4[text]


# Factors too wide to count on their own are left to the refusal check.
_FACTOR_B2_CAP = {3: 10, 4: 7}


def expected_count(modulus: int, shape) -> Optional[int]:
    """The square-zero count by the factor-wise routes, or None if too wide."""
    if modulus == 2:
        return sum(_mod2_closed(t) * k for t, k in shape)
    if any(b2_of(t) > _FACTOR_B2_CAP[modulus] for t, _ in shape):
        return None
    if modulus == 3:
        return sum(_mod3(t) * k for t, k in shape)
    prod = 1
    lines = 0
    for t, k in shape:
        n1, n2 = _strata_mod4(t)
        prod *= (n2 + 1) ** k
        lines += n1 * k
    return prod + lines - 1


def check(req, answer) -> Optional[str]:
    e = req.expect
    if answer[0] == "refused":
        _, needed, budget = answer
        if e["states"] <= STATE_BUDGET:
            return f"refused {e['states']} states, within the budget"
        if needed != e["states"] or budget != STATE_BUDGET:
            return f"refusal reports {needed} needed / budget {budget}"
        return None
    _, n, closed = answer
    want = expected_count(e["modulus"], e["factors"])
    if want is None:
        return "count returned where no independent route exists"
    if n != want:
        return f"count {n}, expected {want}"
    if e["modulus"] == 2 and closed != want:
        return f"closed form {closed}, expected {want}"
    return None


def cli_request(out_dir: str):
    """argv of one small ``mf-count`` call, and a check of its stdout."""
    shape = [("CP1", 2), ("PQ(2,1)", 1)]
    want = expected_count(3, shape)

    def ok(stdout: str) -> bool:
        return json.loads(stdout)["count"] == want

    return ["mf-count", "CP1^2 * PQ(2,1)", "--mod", "3", "--json"], ok
