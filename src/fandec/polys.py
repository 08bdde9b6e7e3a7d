"""Dense integer polynomials as coefficient tuples, ascending powers."""

from __future__ import annotations

from typing import Optional

Poly = tuple[int, ...]

ONE: Poly = (1,)


def normalize(coeffs) -> Poly:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (0,)


def degree(p: Poly) -> int:
    p = normalize(p)
    return len(p) - 1


def poly_mul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return normalize(out)


def poly_pow(a: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative polynomial power")
    out: Poly = ONE
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_div_exact(num: Poly, den: Poly) -> Optional[Poly]:
    """Quotient num/den over Z if the division is exact, else None.

    Requires den monic (leading coefficient 1), which keeps every step
    integral.
    """
    num = normalize(num)
    den = normalize(den)
    if den[-1] != 1:
        raise ValueError("exact division requires a monic divisor")
    if num == (0,):
        return (0,)
    if len(num) < len(den):
        return None
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem[shift + len(den) - 1]
        if c:
            quot[shift] = c
            for j, y in enumerate(den):
                rem[shift + j] -= c * y
    if any(rem):
        return None
    return normalize(quot)
