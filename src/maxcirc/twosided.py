"""Two-sided max-linear systems and their feasibility under box constraints.

A system is a list of equations, each pairing two coefficient vectors
(l, r) over unknowns x_1..x_n and meaning

    max_j l_j * x_j  ==  max_j r_j * x_j.

Solution sets are max cones: closed under entrywise max and scaling, and
always containing the zero vector.

The solver finds the greatest solution below a given upper bound by a
residuation sweep: lower every coordinate to the largest value that keeps
both sides of every equation at or below the smaller of the two current side
values.  Each sweep is monotone and keeps every solution below the iterate,
so the first fixpoint is the greatest solution.  Over the rationals the
sweep need not terminate (coordinates can shrink geometrically forever), so
two escape hatches exist: a sound collapse test (an iterate dominated by
the sweep's upper bound times a uniform factor < 1 proves the greatest
solution is the zero vector, however many sweeps that takes) and an honest
iteration cap.  Feasibility decisions fall back to a complete
corner-candidate enumeration at small sizes when the cap is hit.

The arithmetic is exact and on Python ints: each equation is multiplied by
the lcm of its coefficient denominators (its solution set is unchanged) and
keeps its nonzero terms, and an iterate is a tuple of numerators over one
shared denominator, reduced by their gcd after every sweep.  Each side is
stored gathered, as an ``itemgetter`` over its indices and a tuple of
coefficients, so evaluating it is one ``max(map(mul, ...))``.

A solution cone is also spanned by finitely many extreme rays, which
tropical double description finds within a size limit.

No polynomial-time claim is made for any of this.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import itemgetter, mul

from .core import (
    ONE,
    ZERO,
    DimensionMismatch,
    InternalError,
    MaxVector,
    Record,
    ScalarLike,
    Scaled,
    _scaled,
    as_scalar,
)
from .intervals import Box

# Sparse terms of an integer-scaled equation: (0-based index, coefficient > 0).
Terms = tuple[tuple[int, int], ...]
# A gathered side: a getter of its variables and their coefficients.
Gathered = tuple[itemgetter, tuple[int, ...]]
# An integer-scaled equation: gathered lhs, gathered rhs, the terms of both.
ScaledEquation = tuple[itemgetter, tuple[int, ...], itemgetter, tuple[int, ...], Terms]


class IterationCapExceeded(RuntimeError):
    """The residuation sweep did not stabilize within the iteration cap."""


class TwoSidedSystem(Record):
    """Homogeneous system of two-sided max-linear equations over n unknowns."""

    n: int
    equations: tuple[tuple[MaxVector, MaxVector], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("system needs at least one unknown")
        for lhs, rhs in self.equations:
            if lhs.n != self.n or rhs.n != self.n:
                raise DimensionMismatch("equation width differs from system width")

    @classmethod
    def of(cls, n: int, equations: Iterable[tuple[Iterable, Iterable]]) -> "TwoSidedSystem":
        eqs = tuple((MaxVector.of(l), MaxVector.of(r)) for l, r in equations)
        return cls(n, eqs)

    @cached_property
    def _coefficients(self) -> frozenset[Fraction]:
        """The distinct positive coefficients."""
        return frozenset(c for l, r in self.equations for c in (*l.entries, *r.entries) if c > 0)

    @cached_property
    def iteration_cap(self) -> int:
        """Default number of sweeps before the solver gives up honestly."""
        return max(10 * self.n * max(len(self._coefficients), 1), 60)

    @cached_property
    def _scaled_equations(self) -> tuple[ScaledEquation, ...]:
        """Each equation, scaled to integers: gathered lhs and rhs, then the terms of both."""
        out = []
        for l, r in self.equations:
            scale = lcm(*(c.denominator for c in (*l.entries, *r.entries)))
            out.append(
                _integer_equation(*(tuple(c.numerator * (scale // c.denominator) for c in side) for side in (l, r)))
            )
        return tuple(out)

    @cached_property
    def _generators(self) -> tuple[tuple[int, ...], ...] | None:
        """Extreme integer rays spanning the solution cone; None past the candidate limit."""
        return _cone_generators(self.n, self._scaled_equations)


def max_form(n: int, terms: Iterable[tuple[int, ScalarLike]]) -> MaxVector:
    """Coefficient vector from (1-based index, coefficient) terms.

    Repeated indices accumulate by max, mirroring how repeated occurrences of
    one variable inside a max-linear form collapse.
    """
    coeffs = [ZERO] * n
    for idx, value in terms:
        v = as_scalar(value)
        if not (1 <= idx <= n):
            raise ValueError(f"variable index {idx} out of range 1..{n}")
        if v > coeffs[idx - 1]:
            coeffs[idx - 1] = v
    return MaxVector(tuple(coeffs))


def _gathered(terms: Terms) -> Gathered:
    """Getter and coefficients of a side, padded to two terms with zero coefficients.

    With at least two indices ``itemgetter`` always returns a tuple, and a
    zero coefficient adds nothing to the max; an empty side evaluates to 0.
    """
    padded = terms + ((0, 0),) * (2 - len(terms))
    return itemgetter(*(j for j, _ in padded)), tuple(c for _, c in padded)


def _integer_equation(lhs: Sequence[int], rhs: Sequence[int]) -> ScaledEquation:
    """The equation lhs . x == rhs . x on integer coefficients, gathered for evaluation."""
    l, r = (tuple((j, c) for j, c in enumerate(side) if c) for side in (lhs, rhs))
    return (*_gathered(l), *_gathered(r), l + r)


def _reduced(nums: Sequence[int], den: int) -> Scaled:
    """The same vector with numerators and denominator divided by their gcd."""
    g = gcd(den, *nums)
    return tuple(v // g for v in nums), den // g


def _vector(x: Scaled) -> MaxVector:
    nums, den = x
    return MaxVector(tuple(Fraction(v, den) for v in nums))


def _holds(eqs: Sequence[ScaledEquation], nums: Sequence[int]) -> bool:
    return all(
        max(map(mul, lc, lget(nums))) == max(map(mul, rc, rget(nums)))
        for lget, lc, rget, rc, _ in eqs
    )


def satisfies(system: TwoSidedSystem, x: MaxVector) -> bool:
    """Whether ``x`` solves every equation with exact equality."""
    if x.n != system.n:
        raise DimensionMismatch(f"vector size {x.n} vs system width {system.n}")
    return _holds(system._scaled_equations, _scaled(x.entries)[0])


def _sweep(eqs, x: Scaled) -> Scaled:
    """One residuation round: cap each side of each equation by the smaller side.

    Every bound comes from the old iterate.  New coordinate j is held as
    num[j] / (den[j] * old denominator) until the round ends.
    """
    nums, old_den = x
    num = list(nums)
    den = [1] * len(nums)
    for lget, lc, rget, rc, both in eqs:
        t = min(max(map(mul, lc, lget(nums))), max(map(mul, rc, rget(nums))))
        for j, c in both:
            if t * den[j] < num[j] * c:  # t / c < num[j] / den[j]
                num[j] = t
                den[j] = c
    scale = lcm(*den)
    return _reduced([v * (scale // d) for v, d in zip(num, den)], scale * old_den)


def _collapsed(prev: Scaled, new: Scaled) -> bool:
    """True when new <= c * prev for a single factor c < 1."""
    (prev_nums, prev_den), (new_nums, new_den) = prev, new
    for p, v in zip(prev_nums, new_nums):
        if p == 0:
            if v != 0:
                raise InternalError("residuation sweep increased a zero coordinate")
        elif v * prev_den >= p * new_den:
            return False
    return True


def _fixpoint(
    system: TwoSidedSystem, upper: Scaled, cap: int, lower: MaxVector | None = None
) -> Scaled | None:
    """Sweep from ``upper`` (gcd-reduced) to the greatest solution below it.

    Every solution below ``upper`` stays below each iterate, so an iterate
    below ``lower`` proves there is none at or above it: then None.  A
    collapse, an iterate at most c * ``upper`` for one c < 1, returns zero,
    or None while ``lower`` is positive somewhere.  The sweep S is monotone
    and homogeneous, so S^k(upper) <= c * upper gives S^(jk)(upper) <=
    c^j * upper for every j, and only zero solves below ``upper``.  The
    iterates never rise, so a collapse against any of them is one against
    ``upper`` too: no test against an intermediate iterate fires earlier.
    """
    lows = [(lo.numerator, lo.denominator) for lo in (() if lower is None else lower.entries)]
    x = upper
    for _ in range(cap):
        new = _sweep(system._scaled_equations, x)
        nums, den = new
        if any(v * b < a * den for v, (a, b) in zip(nums, lows)):
            return None
        if new == x:
            return x
        if _collapsed(upper, new):
            return None if any(a for a, _ in lows) else ((0,) * len(nums), 1)
        x = new
    raise IterationCapExceeded(f"no stabilization within {cap} sweeps")


def _greatest(system: TwoSidedSystem, upper: Scaled, cap: int) -> Scaled:
    """Greatest solution at or below a gcd-reduced integer ``upper``, checked."""
    if not system.equations:
        return upper
    result = _fixpoint(system, upper, cap)
    if not _holds(system._scaled_equations, result[0]):
        raise InternalError("stabilized iterate does not solve the system")
    return result


def greatest_solution_leq(
    system: TwoSidedSystem,
    upper: MaxVector,
    iteration_cap: int | None = None,
) -> MaxVector:
    """Greatest solution of the system at or below ``upper`` (possibly zero).

    A "no solution" outcome cannot occur: the system is homogeneous, so the
    zero vector always solves it.  Raises ``IterationCapExceeded`` when the
    sweep fails to stabilize within the cap.
    """
    if upper.n != system.n:
        raise DimensionMismatch(f"upper size {upper.n} vs system width {system.n}")
    cap = system.iteration_cap if iteration_cap is None else iteration_cap
    return _vector(_greatest(system, _scaled(upper.entries), cap))


# --- finite generating set of the solution cone -------------------------------

# Most candidates one half-space step may form before the generating set is
# given up (the count can grow exponentially with the number of equations);
# callers then keep the sweep.  At this limit, builds for random circulant
# attraction systems up to n = 12 took at most about 30 ms on a 2-vCPU machine.
_GENERATOR_CANDIDATE_LIMIT = 256


def _ray(nums: Iterable[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    nums = tuple(nums)
    g = gcd(*nums)
    return nums if g == 1 else tuple([v // g for v in nums])


def _support(x: Sequence[int]) -> int:
    """Bit mask of the indices where ``x`` is positive."""
    return sum(1 << i for i, v in enumerate(x) if v)


def _in_span(k: int, pool: Sequence[Sequence[int]], supports: Sequence[int]) -> bool:
    """Whether the nonzero ray ``pool[k]`` is a max-combination of the other rays of the pool.

    The largest multiple of s at or below x is min x_i / s_i over the support
    of s, times s; it reaches x exactly at the indices attaining the minimum,
    and it is zero when s is positive where x is not, so such an s is
    skipped by its support alone.  x is in the span when these indices
    cover the support of x.  ``supports`` holds each ray's ``_support``.
    """
    x, support = pool[k], supports[k]
    uncovered = support
    for j, (s, s_support) in enumerate(zip(pool, supports)):
        if s_support & ~support or j == k:
            continue
        best_x = best_s = hits = 0
        for i, v in enumerate(s):
            if v:
                xi = x[i]
                if not hits or xi * best_s < best_x * v:
                    best_x, best_s, hits = xi, v, 1 << i
                elif xi * best_s == best_x * v:
                    hits |= 1 << i
        uncovered &= ~hits
        if not uncovered:
            return True
    return False


def _unit_rays(n: int) -> list[tuple[int, ...]]:
    """The unit vectors of size n, in order: the extreme rays of the whole space."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _cone_generators(n: int, eqs: Sequence[ScaledEquation]) -> tuple[tuple[int, ...], ...] | None:
    """Extreme rays of the solution cone by tropical double description.

    Start from the unit vectors and intersect with each half-space a.x <= b.x
    and then b.x <= a.x of every equation.  Generators g with a.g <= b.g stay;
    each pairs with every violating h into (a.h) g + (b.g) h, on which both
    sides equal (a.h)(b.g).  A kept generator was extreme in the larger cone,
    so it is extreme in the smaller one; a new ray is dropped when it lies in
    the span of the rest of the step's pool (the kept generators and the
    other new rays), which leaves exactly the extreme rays.  Returns None
    when a step would form more than ``_GENERATOR_CANDIDATE_LIMIT`` candidates.
    """
    gens = _unit_rays(n)
    for lget, lc, rget, rc, _ in eqs:
        for aget, ac, bget, bc in ((lget, lc, rget, rc), (rget, rc, lget, lc)):
            kept, cut = [], []
            for g in gens:
                ag, bg = max(map(mul, ac, aget(g))), max(map(mul, bc, bget(g)))
                if ag <= bg:
                    kept.append((g, bg))
                else:
                    cut.append((g, ag))
            if not cut:
                continue
            if len(kept) * (1 + len(cut)) > _GENERATOR_CANDIDATE_LIMIT:
                return None
            gens = [g for g, _ in kept]
            known = set(gens)
            combined = {}
            for g, bg in kept:
                for h, ah in cut:
                    # The ray is unchanged when both coefficients are divided by their gcd.
                    d = gcd(ah, bg)
                    x, y = ah // d, bg // d
                    combined[_ray(map(max, [x * u for u in g], [y * v for v in h]))] = None
            fresh = [r for r in combined if r not in known]
            pool = gens + fresh
            supports = [_support(r) for r in pool]
            gens += [r for k, r in enumerate(fresh, len(gens)) if not _in_span(k, pool, supports)]
    if not all(_holds(eqs, g) for g in gens):
        raise InternalError("a cone generator does not solve the system")
    return tuple(gens)


# --- feasibility in a box ----------------------------------------------------


class FeasibilityResult(Record):
    """Outcome of a box-constrained feasibility question.

    status is one of 'feasible' (with a witness satisfying every equation and
    every bound, including strict ones), 'infeasible', or
    'unknown_strict_boundary' when the answer hinges on a strict boundary the
    greatest-solution argument cannot decide.
    """

    status: str
    witness: MaxVector | None = None


def _finish_feasible(system: TwoSidedSystem, box: Box, witness: MaxVector) -> FeasibilityResult:
    if not satisfies(system, witness):
        raise InternalError("feasibility witness fails an equation")
    if not box.contains(witness):
        raise InternalError("feasibility witness leaves the box")
    return FeasibilityResult("feasible", witness)


def feasible_in_box(system: TwoSidedSystem, box: Box) -> FeasibilityResult:
    """Decide whether some point of the box solves the system.

    Strategy: compute the greatest solution g below the closure upper corner.
    Any solution in the box is componentwise at most g, so a sweep that falls
    below the closure lower corner, or collapses to zero above a positive
    one, proves infeasibility.  If g lies in the box it is the witness; if it
    ties an open lower bound, nothing below it clears that bound.  When only
    open upper bounds block g, homogeneity scales it inward unless a closed
    lower bound is tight.  Then, and past the iteration cap, a complete
    enumeration fallback decides where it can; otherwise the outcome is
    'unknown_strict_boundary', or ``IterationCapExceeded`` past the cap.
    """
    if box.n != system.n:
        raise DimensionMismatch(f"box size {box.n} vs system width {system.n}")
    if not system.equations:
        return _finish_feasible(system, box, box.interior_point())

    capped = None
    try:
        x = _fixpoint(
            system, _scaled(box.closure_upper().entries), system.iteration_cap, box.closure_lower()
        )
    except IterationCapExceeded as exc:
        capped = exc
    else:
        if x is None:
            return FeasibilityResult("infeasible")
        g = _vector(x)
        if box.contains(g):
            return _finish_feasible(system, box, g)
        pairs = list(zip(g.entries, box.intervals))
        if any(v == iv.lower and not iv.lower_closed for v, iv in pairs):
            return FeasibilityResult("infeasible")
        # Only open upper bounds block g.  A scaled solution is still a
        # solution (solution sets are max cones), and any factor strictly
        # between the largest lower-bound ratio and 1 clears every upper
        # bound and every positive lower bound strictly.
        c_min = max((iv.lower / v for v, iv in pairs if iv.lower > 0), default=ZERO)
        if c_min < 1:
            return _finish_feasible(system, box, g.scale((c_min + 1) / 2))
    complete, witness = _exhaustive_search(system, box)
    if witness is not None:
        return _finish_feasible(system, box, witness)
    if capped is not None:
        if not complete:
            raise IterationCapExceeded(f"{capped} and fallback enumeration unavailable")
        if box.is_closed:
            # The candidate pool provably contains a witness whenever the
            # closed box meets the solution set, so an empty search decides.
            return FeasibilityResult("infeasible")
    return FeasibilityResult("unknown_strict_boundary")


def simultaneous_feasible(
    systems: Sequence[TwoSidedSystem], box: Box
) -> FeasibilityResult:
    """Feasibility of all the systems at once: concatenate and decide.

    An empty list is trivially feasible at any point of the box.
    """
    n = systems[0].n if systems else box.n
    if any(s.n != n for s in systems):
        raise DimensionMismatch("systems are over different numbers of unknowns")
    return feasible_in_box(TwoSidedSystem(n, tuple(eq for s in systems for eq in s.equations)), box)


# --- complete enumeration fallback -------------------------------------------

_ENUM_VALUE_LIMIT = 120
_ENUM_COMBO_LIMIT = 400_000


def _candidate_values(system: TwoSidedSystem, box: Box) -> list[Fraction] | None:
    """Value pool containing every coordinate of some witness, if one exists.

    If the feasible region meets the box it contains a point where each
    positive coordinate is a bound value multiplied by a chain of at most n-1
    coefficient ratios (tight constraints of a minimal face, anchored at a
    bound).  Products of bounds with up to n-1 ratio factors therefore form a
    complete candidate pool.  Returns None when the pool would be too large.
    """
    coeffs = system._coefficients
    bounds = {b for iv in box.intervals for b in (iv.lower, iv.upper) if b > 0}
    ratios = {a / b for a in coeffs for b in coeffs} if coeffs else {ONE}
    lo = min(iv.lower for iv in box.intervals)
    hi = max(iv.upper for iv in box.intervals)
    values, frontier = set(bounds), bounds
    for _ in range(max(system.n - 1, 0)):
        nxt = {w for v in frontier for r in ratios if lo <= (w := v * r) <= hi} - values
        values |= nxt
        frontier = nxt
        if len(values) > _ENUM_VALUE_LIMIT:
            return None
    values.add(ZERO)
    return sorted(values)


def _exhaustive_search(system: TwoSidedSystem, box: Box) -> tuple[bool, MaxVector | None]:
    """Complete witness search over the candidate pool.

    Returns (complete, witness).  ``complete`` is False when the pool or the
    combination count would be unreasonably large and the search was not
    attempted; then the caller reports its own honest outcome.  When
    ``complete`` is True and no witness exists, the closed box provably
    misses the solution set.
    """
    values = _candidate_values(system, box)
    if values is None:
        return False, None
    den = lcm(*(v.denominator for v in values))
    per_coord: list[list[int]] = []
    total = 1
    for iv in box.intervals:
        cand = [v.numerator * (den // v.denominator) for v in values if iv.contains(v)]
        if not cand:
            return True, None
        per_coord.append(cand)
        total *= len(cand)
        if total > _ENUM_COMBO_LIMIT:
            return False, None
    for nums in product(*per_coord):
        if _holds(system._scaled_equations, nums):
            return True, _vector((nums, den))
    return True, None
