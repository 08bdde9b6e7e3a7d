"""The ``bundles`` workload: invariant bundles and their recovery.

Round trips parse a seeded multiplicity vector with 10 to 2000 factors,
bundle it, recover the multiplicities, realize them and compare.  The
stream also asks for real censuses, Poincare polynomials and cancellation
checks, and hands ``recover`` tampered bundles that must raise
``InconsistentBundleError``.  Squarezero is reached only through its
closed forms and grammar, never through enumeration.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Optional

from fandec import (
    InconsistentBundleError,
    InvariantBundle,
    RealCensus,
    bundle,
    cancellation_check,
    parse_product,
    poincare,
    real_census,
    realize,
    recover,
)

from .counts import factor_parts, spell

NAME = "bundles"
# The kernel in reference.py that slows down the way this workload's code does.
REFERENCE = "python"

ALPHABET = ["PQ(1,1)", "PQ(2,1)", "PQ(3,1)", "PQ(2,2)", "PQ(3,2)", "PQ(2,0)", "PQ(3,0)", "DIAG(2)", "DIAG(3)", "S4"]

# One round of 36: (kind, total factors, share of CP1).  Fourteen cheap
# requests, eight 25-factor round trips that hold the median, then fourteen
# costlier ones; the four 300-factor round trips hold the 90th percentile
# and the 2000-factor round trip is the slowest request of each round.
SLOTS = (
    [("tampered", 12, 0.3)] * 3
    + [("census", n, 0.3) for n in (20, 50, 80, 150, 200)]
    + [("roundtrip", n, 0.5) for n in (10, 12, 14, 16, 18)]
    + [("poincare", 30, 0.3)]
    + [("roundtrip", 25, 0.5)] * 8
    + [("cancel", 14, 0.3)] * 3
    + [("poincare", n, 0.3) for n in (50, 80, 100)]
    + [("roundtrip", n, 0.5) for n in (60, 80, 100)]
    + [("roundtrip", 300, 0.5)] * 4
    + [("roundtrip", 2000, 0.98)]
)

TAMPERINGS = ("odd_line_census", "offdiagonal_mod2", "dimension")


def _shape(rng: random.Random, total: int, cp1_share: float) -> list[tuple[str, int]]:
    m = round(total * cp1_share)
    others = Counter(rng.choice(ALPHABET) for _ in range(total - m))
    return ([("CP1", m)] if m else []) + sorted(others.items())


def _tampered(shape, how: str) -> InvariantBundle:
    b = bundle(parse_product(" * ".join(f"{t}^{k}" for t, k in shape)))
    census = list(b.census.components.elements())
    mod2 = dict(b.class_mod2_counts)
    dim = b.complex_dim
    if how == "odd_line_census":
        census.append("line")
    elif how == "offdiagonal_mod2":
        mod2[(0, 3)] = 5
    else:
        dim += 1
    return InvariantBundle(RealCensus(census), mod2, b.poincare_poly, dim)


def make_round(rng: random.Random, index: int) -> list:
    out = []
    for slot, (kind, total, share) in enumerate(SLOTS):
        shape = _shape(rng, total, share)
        if kind == "cancel":
            a = shape
            b = shape if rng.random() < 0.5 else _shape(rng, total, share)
            c = _shape(rng, total, share)
            args = tuple(spell(x, rng) for x in (a, b, c))
            out.append((kind, args, Counter(dict(a)) == Counter(dict(b)), {}, None))
        elif kind == "tampered":
            how = TAMPERINGS[(index + slot) % len(TAMPERINGS)]
            out.append((kind, (_tampered(shape, how),), how, {}, None))
        else:
            work = {"recovery.recover.factors": total} if kind == "roundtrip" else {}
            out.append((kind, (spell(shape, rng),), shape, work, None))
    rng.shuffle(out)
    return out


# --- requests ---------------------------------------------------------------------


def _roundtrip(call, text: str):
    pm = call("squarezero.parse_product", parse_product, text)
    b = call("recovery.bundle", bundle, pm)
    v = call("recovery.recover", recover, b)
    back = call("recovery.realize", realize, v)
    return v, back.factors == pm.factors


def _census(call, text: str):
    return call("squarezero.real_census", real_census, call("squarezero.parse_product", parse_product, text))


def _poincare(call, text: str):
    return call("squarezero.poincare", poincare, call("squarezero.parse_product", parse_product, text))


def _cancel(call, a: str, b: str, c: str):
    pms = [call("squarezero.parse_product", parse_product, x) for x in (a, b, c)]
    return call("recovery.cancellation_check", cancellation_check, *pms)


def _recover_tampered(call, b: InvariantBundle):
    try:
        return call("recovery.recover", recover, b)
    except InconsistentBundleError:
        return "rejected"


EXECUTORS = {
    "roundtrip": _roundtrip,
    "census": _census,
    "poincare": _poincare,
    "cancel": _cancel,
    "tampered": _recover_tampered,
}


# --- independent checks -------------------------------------------------------------


def _census_of(text: str) -> Counter:
    """Component labels of one factor's real square-zero set (frozen table)."""
    name, nums = factor_parts(text)
    if name == "CP1":
        return Counter({"R": 2})
    if name == "DIAG":
        return Counter({f"S{nums[0] - 1}xS{nums[0] - 1}xR": 1})
    if name == "S4" or nums[1] == 0:
        return Counter()
    p, q = nums
    if (p, q) == (1, 1):
        return Counter({"R": 4})
    if q == 1:
        return Counter({f"S{p - 1}xR": 2})
    return Counter({f"S{q - 1}xS{p - 1}xR": 1})


def _poly_at(text: str, x: int) -> int:
    name, nums = factor_parts(text)
    linear = {"CP1": 1, "S4": 0, "PQ": sum(nums), "DIAG": 2 * sum(nums)}[name]
    return 1 + linear * x if name == "CP1" else 1 + linear * x + x * x


def _multiplicities(shape) -> tuple:
    m = n = 0
    m_pq: dict = {}
    n_r: dict = {}
    for text, k in shape:
        name, nums = factor_parts(text)
        if name == "CP1":
            m += k
        elif name == "S4":
            n += k
        elif name == "PQ":
            m_pq[nums] = k
        else:
            n_r[nums[0]] = k
    return m, m_pq, n_r, n


def check(req, answer) -> Optional[str]:
    kind, shape = req.kind, req.expect
    if kind == "roundtrip":
        v, same = answer
        if (v.m, v.m_pq, v.n_r, v.n) != _multiplicities(shape):
            return f"recovered {v.summary()}"
        return None if same else "realize(recover(bundle)) differs from the input"
    if kind == "census":
        want = Counter()
        for text, k in shape:
            for label, c in _census_of(text).items():
                want[label] += c * k
        return None if answer.as_dict() == dict(want) else f"census {answer.as_dict()}"
    if kind == "poincare":
        dim = sum((1 if t == "CP1" else 2) * k for t, k in shape)
        if len(answer) != dim + 1 or answer[0] != 1 or answer[-1] != 1:
            return f"poincare polynomial of degree {len(answer) - 1}, expected {dim}"
        for x in (1, 2, -1):
            want = 1
            for text, k in shape:
                want *= _poly_at(text, x) ** k
            if sum(c * x**i for i, c in enumerate(answer)) != want:
                return f"poincare polynomial is wrong at x = {x}"
        return None
    if kind == "cancel":
        return None if answer is shape else f"cancellation_check returned {answer}"
    if kind == "tampered":
        return None if answer == "rejected" else f"tampered bundle ({shape}) was accepted"
    raise ValueError(f"unknown request kind {kind!r}")


def cli_request(out_dir: str):
    """argv of one small ``recover`` call, and a check of its stdout."""

    def ok(stdout: str) -> bool:
        out = json.loads(stdout)
        return out["round_trip"] == "OK" and out["recovered"] == {"m": 2, "m_pq": {"(1,1)": 1}, "n_r": {}, "n": 0}

    return ["recover", "CP1^2 * PQ(1,1)", "--json"], ok
