"""Chain dimensions counted without enumeration, from labelled species.

The counts are exponential generating functions (Bergeron, Labelle and
Leroux, *Combinatorial Species and Tree-like Structures*, 1998; Flajolet
and Sedgewick, *Analytic Combinatorics*, 2009, ch. II) in x, which marks a
leg, and y, which marks an edge.  A series is a dict from ``(x-degree,
y-degree)`` to its ``Fraction`` coefficient, truncated above degree N in
both variables.

A flag's far side is a leg or an edge to a vertex with at least two inputs
below it, u = x + yF, where F = e^u - 1 - u is that vertex; F is found as a
fixed point, each round fixing one more x-degree.  Then dim C_i is
N! [x^N y^i] of
- Stirling (n, k): (u^k / k!) e^u / (1 - y (e^u - 1)), the distinguished
  vertex with its k alternating inputs and the others, below a chain of
  edges whose upper vertices each have at least one other input;
- genus one: V + yV + sum_{c >= 3} (yV)^c / (2c) with V = e^u - 1, the
  genus-one vertex, the loop and the cycles of c blocks up to rotation and
  reflection; without the orientation kill the 2-cycles add (yV)^2 / 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ONE = {(0, 0): Fraction(1)}
X = {(1, 0): Fraction(1)}
Y = {(0, 1): Fraction(1)}


def _add(*series):
    out = {}
    for s in series:
        for deg, c in s.items():
            out[deg] = out.get(deg, 0) + c
    return out


def _scale(s, c):
    return {deg: v * c for deg, v in s.items()}


def _mul(a, b, top):
    out = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            if i + k <= top and j + l <= top:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + u * v
    return out


def _powers(s, top):
    """s^0 .. s^top; with no constant term, s^j starts at degree j."""
    out = [ONE]
    for _ in range(top):
        out.append(_mul(out[-1], s, top))
    return out


def _exp(powers, start):
    """sum_{j >= start} s^j / j! from the powers of s."""
    return _add(*(_scale(p, Fraction(1, factorial(j)))
                  for j, p in enumerate(powers) if j >= start))


def _far_side(top):
    """The powers of u = x + yF, with F = e^u - 1 - u."""
    shape = {}
    for _ in range(top):
        powers = _powers(_add(X, _mul(Y, shape, top)), top)
        shape = _exp(powers, 2)
    return powers


def _coefficients(series, top, edges):
    counts = {i: factorial(top) * series.get((top, i), 0) for i in edges}
    assert all(c.denominator == 1 for c in counts.values())
    return {i: int(c) for i, c in counts.items()}


def stirling_dims(n, k):
    """dim C_i of the Stirling complex (n, k), for i = 0..n-k."""
    powers = _far_side(n)
    chain = _powers(_mul(Y, _exp(powers, 1), n), n)
    series = _mul(_mul(_scale(powers[k], Fraction(1, factorial(k))),
                       _exp(powers, 0), n), _add(*chain), n)
    return _coefficients(series, n, range(n - k + 1))


def graph_dims(m, orientation_kill=True):
    """dim C_i of the genus-one graph complex on m legs, for i = 0..m."""
    powers = _far_side(m)
    vertex = _exp(powers, 1)
    cycles = _powers(_mul(Y, vertex, m), m)
    series = _add(vertex, cycles[1],
                  *(_scale(cycles[c], Fraction(1, 2 * c)) for c in range(3, m + 1)))
    if not orientation_kill:
        series = _add(series, _scale(cycles[2], Fraction(1, 2)))
    return _coefficients(series, m, range(m + 1))
