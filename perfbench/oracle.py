"""References for the benchmark's output checks, independent of qeslab.

Nothing here imports qeslab.  The level oracle builds the 2n x 2n
matrix of the gauged operator straight from its closed form

    h = -(4x d^2 + 2d) 1 - 4n k0^2 d s3
        + 4 diag(x^2 d - n x, x^2 d - (n-2) x)
        + 4 k0 [[0, -n], [(1 + k0^2 n) d^2, 0]],     c = -4 n k0,

acting on the monomials 1..x^n (top) and 1..x^(n-2) (bottom), and takes
its eigenvalues in floating point.  The polynomial parser reads the
coefficient strings that `qeslab charpoly` prints.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

# Stated tolerance for a level: printed levels carry 12 significant
# digits and the float eigensolve of a 2n x 2n matrix loses a few more.
LEVEL_RTOL = 1e-6


def closed_form_matrix(n: int, c) -> np.ndarray:
    """Float matrix of h on P(n) (+) P(n-2); entry [i][j] is the
    coefficient of basis monomial i in the image of basis monomial j."""
    k0 = -float(c) / (4 * n)
    dim = 2 * n
    m = np.zeros((dim, dim))

    def top(p):
        return p

    def bottom(p):
        return n + 1 + p

    for p in range(n + 1):
        down = -(4 * p * (p - 1) + 2 * p) - 4 * n * k0 * k0 * p
        if p >= 1:
            m[top(p - 1), top(p)] += down
        if p + 1 <= n:
            m[top(p + 1), top(p)] += 4 * (p - n)
        if p >= 2:
            m[bottom(p - 2), top(p)] += 4 * k0 * (1 + k0 * k0 * n) * p * (p - 1)
    for p in range(n - 1):
        down = -(4 * p * (p - 1) + 2 * p) + 4 * n * k0 * k0 * p
        if p >= 1:
            m[bottom(p - 1), bottom(p)] += down
        if p + 1 <= n - 2:
            m[bottom(p + 1), bottom(p)] += 4 * (p - (n - 2))
        m[top(p), bottom(p)] += -4 * n * k0
    return m


def levels(n: int, c) -> list:
    """The 2n algebraic levels at coupling c, ascending."""
    values = np.linalg.eigvals(closed_form_matrix(n, c))
    return sorted(float(v) for v in values.real)


def level_mismatches(got, want, rtol: float = LEVEL_RTOL) -> list:
    """Describe every position where two ascending level lists differ."""
    if len(got) != len(want):
        return [f"{len(got)} levels, expected {len(want)}"]
    return [
        f"level {i + 1}: {g!r} vs reference {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if abs(g - w) > rtol * max(1.0, abs(w))
    ]


_TERM = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?P<var1>[a-z]\w*)(?:\^(?P<pow1>\d+))?)?"
    r"|(?P<var2>[a-z]\w*)(?:\^(?P<pow2>\d+))?)$"
)


def parse_poly(text: str, var: str) -> dict:
    """Parse `-c^6 + 8*c^4 + 3/16*c^2 - 23040` into {power: Fraction}."""
    out = {}
    tokens = text.strip().replace(" - ", " + -").split(" + ")
    for token in tokens:
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        match = _TERM.match(token)
        if match is None:
            raise ValueError(f"unparsable term {token!r} in {text!r}")
        name = match.group("var1") or match.group("var2")
        if name is not None and name != var:
            raise ValueError(f"term {token!r} is not in {var}")
        coeff = Fraction(match.group("coeff") or 1)
        power = match.group("pow1") or match.group("pow2")
        power = int(power) if power else (1 if name else 0)
        out[power] = out.get(power, Fraction(0)) + sign * coeff
    return out


def eval_poly(coeffs: dict, value: Fraction) -> Fraction:
    return sum((c * value**p for p, c in coeffs.items()), Fraction(0))


def poly_roots(coeffs_by_power: dict) -> list:
    """Real parts of the float roots of a polynomial given as
    {power: Fraction}, ascending, and the largest imaginary part of a
    root relative to its size."""
    degree = max(coeffs_by_power)
    dense = [float(coeffs_by_power.get(p, 0)) for p in range(degree, -1, -1)]
    roots = np.roots(dense)
    return sorted(float(r) for r in roots.real), float(
        max((abs(r.imag) / max(1.0, abs(r)) for r in roots), default=0.0)
    )
