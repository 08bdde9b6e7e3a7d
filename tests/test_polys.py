import random

import pytest

from fandec.polys import (
    ONE,
    degree,
    normalize,
    poly_div_exact,
    poly_mul,
    poly_pow,
)


def poly_eval(a, x: int) -> int:
    """Horner evaluation, the reference the products are checked against."""
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def test_normalize_and_degree():
    assert normalize((1, 2, 0, 0)) == (1, 2)
    assert normalize((0, 0)) == (0,)
    assert normalize(()) == (0,)
    assert degree((1, 0, 1)) == 2
    assert degree((0,)) == 0
    assert ONE == (1,)


def test_poly_mul():
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_mul((1, 2, 1), (1, 0, 1)) == (1, 2, 2, 2, 1)
    assert poly_mul((0,), (1, 5)) == (0,)
    assert poly_mul((1,), (1, 3, 1)) == (1, 3, 1)


def test_poly_pow():
    assert poly_pow((1, 1), 0) == (1,)
    assert poly_pow((1, 1), 4) == (1, 4, 6, 4, 1)
    assert poly_pow((1, 0, 1), 2) == (1, 0, 2, 0, 1)


def test_poly_eval():
    assert poly_eval((1, 3, 2), 2) == 1 + 6 + 8
    assert poly_eval((1,), 99) == 1


def test_poly_div_exact():
    assert poly_div_exact((1, 2, 1), (1, 1)) == (1, 1)
    assert poly_div_exact((1, 2, 2, 2, 1), (1, 0, 1)) == (1, 2, 1)
    assert poly_div_exact((1, 1, 1), (1, 1)) is None
    assert poly_div_exact((1, 1), (1, 2, 1)) is None  # degree too small
    with pytest.raises(ValueError):
        poly_div_exact((2, 2), (1, 2))  # non-monic divisor


def test_poly_div_mul_roundtrip_random():
    rng = random.Random(313)
    for _ in range(200):
        q = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5)))
        q = normalize(q)
        d = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 3))) + (1,)
        prod = poly_mul(q, d)
        assert poly_div_exact(prod, d) == q
        for x in (-2, 3):
            assert poly_eval(prod, x) == poly_eval(q, x) * poly_eval(d, x)
