"""Circulant matrices in the max-times semiring and their closed-form spectra.

A circulant is determined by its defining row (a_0, ..., a_{n-1}); entry
(i, j) of the expanded matrix is a_t for t = (j - i) mod n.  Products and
powers are taken on defining rows, with integer numerators over the lcm D of
the row's denominators (the t-th power over D^t), so no entry product runs a
gcd; the results are exact and are the same rationals as the products of the
expanded matrices.  For circulants the greatest eigenvalue is simply the
largest defining entry, the critical digraph splits into gcd-determined
isomorphic components, and the ultimate period of matrix powers is given by
explicit gcd formulas.  The gcd components and the three equivalent gcd
period formulas are cross-checked against the graph-computed components and
cyclicity on every call; a disagreement is an implementation bug and raises
``InternalError``.  The cross-check's threshold digraph is read off the
defining row's maximal offsets, so no matrix is expanded for it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from operator import mul

from .core import (
    DimensionMismatch,
    InternalError,
    MaxMatrix,
    Record,
    Scaled,
    ScalarLike,
    _scaled,
    as_scalar,
    power_by_squaring,
)
from .digraph import Digraph, digraph_cyclicity


class Circulant(Record):
    """Circulant matrix, stored as its defining row.

    Each entry is coerced by ``as_scalar``: ints and ``"p/q"`` strings become
    ``Fraction``s, a float raises ``TypeError`` and a negative value raises
    ``ValueError``.
    """

    row: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.row) < 1:
            raise ValueError("circulant needs at least one defining entry")
        object.__setattr__(self, "row", tuple(map(as_scalar, self.row)))

    @classmethod
    def of(cls, values: Iterable[ScalarLike]) -> "Circulant":
        return cls(tuple(values))

    @classmethod
    def identity(cls, n: int) -> "Circulant":
        if n < 1:
            raise ValueError("circulant needs at least one defining entry")
        return cls.of([1] + [0] * (n - 1))

    @property
    def n(self) -> int:
        return len(self.row)

    def is_zero(self) -> bool:
        return not any(self.row)

    def __repr__(self) -> str:
        return "Circulant(" + ", ".join(str(v) for v in self.row) + ")"


def expand(c: Circulant) -> MaxMatrix:
    """The full n-by-n matrix with entry (i,j) equal to row[(j-i) mod n]."""
    n = c.n
    return MaxMatrix(
        tuple(tuple(c.row[(j - i) % n] for j in range(n)) for i in range(n))
    )


def _int_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Defining row of the product of two circulants given by integer rows.

    Entry k is the max over i of a[i] * b[(k - i) mod n].  The slices
    ``b[k::-1] + b[:k:-1]`` list b[k - i] for i = 0..n-1, where Python's
    negative index is the cyclic rotation.
    """
    return tuple(max(map(mul, a, b[k::-1] + b[:k:-1])) for k in range(len(a)))


def _from_numerators(nums: tuple[int, ...], den: int) -> Circulant:
    return Circulant(tuple(Fraction(v, den) for v in nums))


def circ_mul(c: Circulant, d: Circulant) -> Circulant:
    """Product of circulants, computed directly on defining rows in O(n^2)."""
    if c.n != d.n:
        raise DimensionMismatch(f"circulant sizes differ: {c.n} vs {d.n}")
    (a, da), (b, db) = _scaled(c.row), _scaled(d.row)
    return _from_numerators(_int_product(a, b), da * db)


def _scaled_power(c: Circulant, t: int) -> Scaled:
    """A^t as its numerator row over D^t, with D the lcm of the row's denominators.

    The numerator row over D is squared as integers; t = 0 gives the identity
    row over 1.
    """
    nums, den = _scaled(c.row)
    identity = (1,) + (0,) * (c.n - 1)
    return power_by_squaring(nums, t, _int_product, identity), den**t


def circ_power(c: Circulant, t: int) -> Circulant:
    """t-th power on defining rows by repeated squaring (t = 0 gives identity)."""
    return _from_numerators(*_scaled_power(c, t))


def circ_lambda(c: Circulant) -> Fraction:
    """Greatest eigenvalue of a circulant: the maximum of its defining row."""
    return max(c.row)


class CircSpectral(Record):
    """Closed-form spectral data of a nonzero circulant."""

    eigenvalue: Fraction
    critical_offsets: tuple[int, ...]  # decreasing offsets t >= 1 with a_t maximal
    diagonal_is_maximal: bool  # a_0 attains the maximum
    component_count: int
    components: tuple[tuple[int, ...], ...]
    period: int
    period_formulas: tuple[int, int, int] | None  # None when the period is 1 by a_0


def _period_formulas(n: int, ps: tuple[int, ...]) -> tuple[int, int, int]:
    """The three equivalent gcd expressions for the cyclicity, evaluated separately.

    ``ps`` is the decreasing tuple of offsets attaining the maximum; requires
    the diagonal entry to be non-maximal (otherwise the period is 1).
    """
    p1 = ps[0]
    base = n // math.gcd(n, p1)
    f1 = base
    for pk in ps[1:]:
        f1 = math.gcd(f1, (p1 - pk) // math.gcd(p1, pk))
    f2 = base
    for a, b in zip(ps, ps[1:]):
        f2 = math.gcd(f2, (a - b) // math.gcd(a, b))
    f3 = base
    g = math.gcd(n, p1)
    for pk in ps[1:]:
        g = math.gcd(g, pk)
        f3 = math.gcd(f3, (p1 - pk) // g)
    return (f1, f2, f3)


def circ_spectral(c: Circulant) -> CircSpectral:
    """Eigenvalue, critical components and ultimate period of a nonzero circulant.

    Component node sets come from the gcd formula; the period is computed by
    all three gcd expressions.  Both must agree with the components and the
    cyclicity of the threshold digraph at the eigenvalue.  That digraph is
    read off the row: entry (i, j) of the expanded matrix is a_t for
    t = (j - i) mod n, so its edges are (i, i + t mod n) for each offset t
    with a_t maximal.
    """
    if c.is_zero():
        raise ValueError("zero circulant has no critical structure")
    n = c.n
    lam = circ_lambda(c)
    ps = tuple(t for t in range(n - 1, 0, -1) if c.row[t] == lam)
    a0_max = c.row[0] == lam

    # With only the diagonal maximal, m = n: the critical digraph is n loops.
    m = math.gcd(n, *ps)
    components = tuple(tuple(range(i, n + 1, m)) for i in range(1, m + 1))

    if a0_max:
        period = 1
        formulas: tuple[int, int, int] | None = None
    else:
        formulas = _period_formulas(n, ps)
        if not (formulas[0] == formulas[1] == formulas[2]):
            raise InternalError(f"cyclicity formulas disagree: {formulas} for {c!r}")
        period = formulas[0]

    offsets = ps + (0,) * a0_max
    edges = frozenset((i + 1, (i + t) % n + 1) for t in offsets for i in range(n))
    per, graph_sigma = digraph_cyclicity(Digraph(n, edges))
    graph_components = tuple(comp for comp, _ in per)
    if graph_components != components or graph_sigma != period:
        raise InternalError(
            f"gcd formulas give {components}, period {period}; threshold digraph gives"
            f" {graph_components}, cyclicity {graph_sigma} for {c!r}"
        )
    return CircSpectral(
        eigenvalue=lam,
        critical_offsets=ps,
        diagonal_is_maximal=a0_max,
        component_count=m,
        components=components,
        period=period,
        period_formulas=formulas,
    )
