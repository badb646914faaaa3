"""The polynomials of backflow detection: each mode's bracket tables (see
``detect``), derived from its row of ``control.BLOCH_ROWS`` once, at import,
as Python ints, and the float routines that evaluate them and find their
real roots: Horner's rule, cubic root candidates, a Newton root closed by
float bisection, and the windows where a polynomial in u = e^{-2t} is positive.
"""

import math
import struct
from itertools import zip_longest
from typing import List, Tuple

import numpy as np

from .control import BLOCH_ROWS


class _PolyPU(dict):
    """A polynomial in (p, u) as {(i, j): coefficient of p^i u^j}, with the
    +, -, * a Bloch row uses and d/du.  Every coefficient is an int, so
    every product and sum here is exact."""

    @staticmethod
    def of(x) -> "_PolyPU":
        """x itself, or an integer as a constant polynomial; refuses any other number."""
        if isinstance(x, _PolyPU):
            return x
        if not float(x).is_integer():
            raise ValueError(f"a Bloch row constant must be an integer, got {x}")
        return _PolyPU({(0, 0): int(x)})

    def __add__(self, other):
        out = _PolyPU(self)
        for key, c in _PolyPU.of(other).items():
            out[key] = out.get(key, 0) + c
        return out

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return -1 * self + other

    def __mul__(self, other):
        out, other = _PolyPU(), _PolyPU.of(other)
        for (i, j), c in self.items():
            for (k, l), d in other.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
        return out

    __radd__, __rmul__ = __add__, __mul__

    def d_du(self) -> "_PolyPU":
        return _PolyPU({(i, j - 1): j * c for (i, j), c in self.items() if j})

    def by_u(self) -> tuple:
        """The coefficient of each power of u up to the highest nonzero one,
        ascending, each ascending in p without trailing zeros, (0,) if none."""
        columns = [{} for _ in range(1 + max((j for (_, j), c in self.items() if c), default=0))]
        for (i, j), c in self.items():
            if c:
                columns[j][i] = c
        return tuple(tuple(column.get(i, 0) for i in range(1 + max(column, default=0))) for column in columns)


def _brackets(row):
    """B_x and B_z of a Bloch row, as polynomials in (p, u): with primes in u,
    2 S Delta' - S' Delta = a^2 B_x + b^2 B_z for B_j = 2 n_j (n_j Delta' - n_j' Delta)."""
    p, u = _PolyPU({(1, 0): 1}), _PolyPU({(0, 1): 1})
    # an entry free of p and u, such as the bare Delta, becomes a polynomial too
    delta, n_x, _, n_z = (_PolyPU.of(entry) for entry in row(p, u, 1 - u))
    d_delta = delta.d_du()
    return tuple(2 * n * (n * d_delta - n.d_du() * delta) for n in (n_x, n_z))


def _bracket_table(b_x, b_z):
    """The (B_x, B_z) pairs, one per power of u, ascending; each B_j as its
    coefficients ascending in p."""
    return tuple(zip_longest(b_x.by_u(), b_z.by_u(), fillvalue=(0,)))


def _peak_table(b_x, b_z):
    """W / u^m as a polynomial in w = u + 1/u, ascending, for W = B_x B_z' - B_z B_x'
    (primes in u; r = B_z / (B_z - B_x) has the slope -W / (B_z - B_x)^2), a palindrome of degree 2m in u."""
    coeffs = (b_x * b_z.d_du() - b_z * b_x.d_du()).by_u()
    assert len(coeffs) % 2 and coeffs == coeffs[::-1], "W is not a palindrome in u"
    # u^k + u^-k as polynomials in w (in the u slot): 2, w, then w (u^k + u^-k) - (u^(k-1) + u^(1-k))
    m, w = len(coeffs) // 2, _PolyPU({(0, 1): 1})
    sums = [_PolyPU.of(2), w]
    while len(sums) <= m:
        sums.append(w * sums[-1] - sums[-2])
    return sum(_PolyPU({(i, 0): c for i, c in enumerate(coeffs[m + k])}) * (sums[k] if k else 1) for k in range(m + 1)).by_u()


_BRACKETS = {mode: _brackets(row) for mode, row in BLOCH_ROWS.items()}
_BRACKET_TABLES = {mode: _bracket_table(*pair) for mode, pair in _BRACKETS.items()}
_PEAK_TABLES = {mode: _peak_table(*pair) for mode, pair in _BRACKETS.items()}
# float views, exact while each int is below 2^53, for the float routines: Horner's rule over ints is slower
_BRACKET_FLOATS = {mode: tuple(tuple(tuple(map(float, b)) for b in pair) for pair in t) for mode, t in _BRACKET_TABLES.items()}
_PEAK_FLOATS = {mode: tuple(tuple(map(float, c)) for c in t) for mode, t in _PEAK_TABLES.items()}


def _horner(coeffs, x):
    """A polynomial at x by Horner's rule, coefficients ascending."""
    value = coeffs[-1]
    for c in coeffs[-2::-1]:
        value = value * x + c
    return value


def _bracket_coeffs(mode: str, a, p):
    """A mode's bracket coefficients at (a, p), ascending in u: a^2 B_x + b^2 B_z,
    each table evaluated at p.  a and p may be broadcasting arrays."""
    a2 = a * a
    b2 = 1.0 - a2
    return tuple(a2 * _horner(x, p) + b2 * _horner(z, p) for x, z in _BRACKET_FLOATS[mode])


def _u0_pair(mode: str, p):
    """B_x and B_z at u = 0, the bracket's u^0 coefficient at a = 1 and at a = 0."""
    return tuple(_horner(c, p) for c in _BRACKET_FLOATS[mode][0])


def _u_range(t_lo: float, t_hi: float) -> Tuple[float, float]:
    """[t_lo, t_hi] as a range of u = e^{-2t}; u underflows to 0 past t ~ 372."""
    return math.exp(-2.0 * t_hi), math.exp(-2.0 * t_lo)


def _cubic_candidates(coeffs, zero):
    """Candidates that include every real root of a polynomial of degree at
    most 3, coefficients ascending, elementwise over numpy arrays or numpy
    scalars: ``zero``, 0.0 times one of those, pads it to the cubic
    d3 u^3 + d2 u^2 + d1 u + d0, so a zero leading term divides to inf or NaN.

    Branch-free: the three trigonometric-form values (all roots when three
    are real), Cardano's value (the root when one is real) and the two
    roots of d2 u^2 + d1 u + d0 (the roots as d3 -> 0, where the cubic
    forms lose their precision).  A formula that does not apply gives inf,
    NaN or a spurious value; callers only ever use a candidate as one more
    point at which to evaluate.
    """
    d0, d1, d2, d3 = [*coeffs, *[zero] * (4 - len(coeffs))]
    with np.errstate(all="ignore"):
        shift = d2 / (3.0 * d3)
        c, d = d1 / d3, d0 / d3
        pp = c - 3.0 * shift * shift
        qq = shift * (2.0 * shift * shift - c) + d
        disc = 0.25 * qq * qq + pp * pp * pp / 27.0
        s = np.cbrt(-0.5 * qq - np.copysign(np.sqrt(disc), qq))
        m = 2.0 * np.sqrt(-pp / 3.0)
        # np.clip is slow on numpy scalars
        phi = np.arccos(np.minimum(np.maximum(3.0 * qq / (pp * m), -1.0), 1.0)) / 3.0
        q = -0.5 * (d1 + np.copysign(np.sqrt(d1 * d1 - 4.0 * d2 * d0), d1))
        return (
            m * np.cos(phi) - shift,
            m * np.cos(phi - 2.0 * np.pi / 3.0) - shift,
            m * np.cos(phi + 2.0 * np.pi / 3.0) - shift,
            s - pp / (3.0 * s) - shift,
            q / d2,
            d0 / q,
        )


def _root(coeffs, slopes, lo, hi, f_lo, f_hi):
    """The bracket's root in [lo, hi], where it is monotone and changes sign,
    given its derivative's coefficients: Newton steps from the secant guess,
    bisecting whenever a step would leave the shrinking range.  From above the
    tiny root of a flat bracket, such as c u - 256 u^3, each step shrinks u by
    a factor of only about 2/3; when the steps run out, ``_bisect_floats``
    closes the range."""
    positive_lo = f_lo > 0.0
    u = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(200):
        f = _horner(coeffs, u)
        if f == 0.0:
            return u
        if (f > 0.0) == positive_lo:
            lo = u
        else:
            hi = u
        slope = _horner(slopes, u)
        step = u - f / slope if slope else 0.5 * (lo + hi)
        if abs(step - u) <= 1e-15 * u:
            return step
        u = step if lo < step < hi else 0.5 * (lo + hi)
    return _bisect_floats(coeffs, lo, hi, positive_lo)


def _bisect_floats(coeffs, lo, hi, positive_lo):
    """The bracket's sign change in [lo, hi], 0 <= lo <= hi, to two adjacent
    floats: the range halved in the order of the floats, whose bit patterns
    increase with their value, so at most 64 halvings.  Returns the low end."""
    lo, hi = (struct.unpack("<q", struct.pack("<d", end))[0] for end in (lo, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f = _horner(coeffs, struct.unpack("<d", struct.pack("<q", mid))[0])
        if f == 0.0:
            lo = hi = mid
        elif (f > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return struct.unpack("<d", struct.pack("<q", lo))[0]


def _windows(coeffs, t_lo: float, t_hi: float) -> List[Tuple[float, float]]:
    """The stretches of [t_lo, t_hi] where a polynomial in u = e^{-2t} of
    degree at most 4 is positive, in time order, with exact roots as inner
    endpoints: one root per monotone piece whose ends differ in sign."""
    u_lo, u_hi = _u_range(t_lo, t_hi)
    points, slopes = [u_lo, u_hi], [k * c for k, c in enumerate(coeffs)][1:]
    # the polynomial is monotone between its critical points; a linear one
    # has none, and up to a quartic they are the roots of its derivative,
    # found over numpy scalars, where a zero top slope divides to inf or NaN
    if len(slopes) > 1:
        numpy_slopes = np.array(slopes, dtype=float)
        points += [float(u) for u in _cubic_candidates(numpy_slopes, 0.0 * numpy_slopes[-1]) if u_lo < u < u_hi]
    points.sort()
    values = [_horner(coeffs, u) for u in points]
    # edges in descending time, since u = e^{-2t} runs backwards
    edges = [t_hi] if values[0] > 0.0 else []
    for i in range(1, len(points)):
        if (values[i] > 0.0) != (values[i - 1] > 0.0):
            u = _root(coeffs, slopes, points[i - 1], points[i], values[i - 1], values[i])
            edges.append(t_hi if u <= u_lo else min(t_hi, max(t_lo, -0.5 * math.log(u))))
    if values[-1] > 0.0:
        edges.append(t_lo)
    edges.reverse()
    return list(zip(edges[::2], edges[1::2]))


def _peak(mode: str, p, u_lo: float, u_hi: float):
    """B_x and B_z (the bracket at a = 1 and at a = 0) at the u* in [u_lo, u_hi] where r = B_z / (B_z - B_x)
    peaks over the points with B_z > 0, or at u_lo if there are none, for a 1-d p array.  u* is an end of
    the range or a root w >= 2 of the mode's peak table, a polynomial in w = u + 1/u, that lies inside it."""
    folded = [_horner(c, p) for c in _PEAK_FLOATS[mode]]
    with np.errstate(all="ignore"):
        # the root u <= 1 of u^2 - w u + 1, without the cancellation of (w - sqrt(w^2 - 4)) / 2
        roots = [2.0 / (w + np.sqrt(w * w - 4.0)) for w in _cubic_candidates(folded, 0.0 * p)]
    # a root outside the range clips to an end, and a NaN has no B_z > 0
    u = np.clip([np.full_like(p, u_lo), np.full_like(p, u_hi), *roots], u_lo, u_hi)
    b_x, b_z = _horner(_bracket_coeffs(mode, np.array([[[1.0]], [[0.0]]]), p), u)
    ratio = np.divide(b_z, b_z - b_x, out=np.full_like(b_z, -1.0), where=b_z > 0.0)
    peak = ratio.argmax(axis=0)[None]
    return np.take_along_axis(b_x, peak, 0)[0], np.take_along_axis(b_z, peak, 0)[0]
