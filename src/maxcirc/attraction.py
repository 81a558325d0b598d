"""Attraction cones: defining systems, membership, Kleene stars, inclusion.

The attraction cone of a matrix A (for its greatest eigenvalue) is the set
of vectors whose orbit under A eventually lands in the eigencone.  For an
admissible matrix it is exactly the solution set of the two-sided system

    lambda * A^t (x)  ==  A^(t+1) (x)      for any t at or past the transient,

and for a circulant the exponent n^2 always works.  For a circulant the same
cone is also cut out by a smaller system: the rows of A^(n^2) indexed by one
critical component agree on x.  Its power is taken on the defining row, so
building it needs no transient, no cycle mean and no matrix product.

This module builds those systems, reduces them, decides membership, and
checks inclusion between two attraction cones; a circulant operand of an
inclusion check enters through its reduced system, whose A^(n^2) also starts
a first operand's eigenvector window.  For a circulant that check stays on
integers until a counterexample is reported: the power, the row pairs, the
equations, the generators and the window are numerators over one
denominator, and a system over the rationals is built only when the
sampler needs one.  Within its size limit, the finite
generating set of the first cone decides inclusion: the first cone lies in
the second exactly when every generator does.  Past the limit the first
cone is sampled for a counterexample.

Two circulant cones have closed forms, read off ``circ_spectral`` alone.
A circulant with exactly one maximal entry, at an offset coprime to n, has
one Hamiltonian cycle as its critical digraph and the ray of (1, ..., 1) as
its attraction cone.  As a first operand it is decided exactly at any n,
with no power, row pairs or generator search; a circulant second operand
answers a constant ray as a member without building anything, since
B 1 = lambda_B 1.  A nonzero circulant of period 1 has the whole space as
its attraction cone: each critical component has one cyclic class, so its
rows of A^(n^2) coincide and the reduced system is empty.  Two such cones
decide their inclusion from their two spectral passes.  Against any other
cone it takes the general route, where it has no row pairs and the double
description keeps the unit vectors as its generators.

Two circulants with a <= b entrywise, a nonzero, and equal largest
entries need no cone at all: the cone of a lies in that of b
(``_is_dominated`` gives the proof), so their inclusion is decided,
exactly, from one entrywise comparison of the rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Literal, Sequence, TypeVar

from .circulant import CircSpectral, Circulant, _int_product, _scaled_power, circ_lambda, circ_spectral, expand
from .core import (
    ONE,
    ZERO,
    DimensionMismatch,
    InternalError,
    MaxMatrix,
    MaxVector,
    _scaled,
    exact_kth_root,
    kleene_sum,
    mat_mul,
    mat_power,
)
from .digraph import max_cycle_mean
from .periodicity import (
    PeriodicityInfo,
    _admissible_lambda_class,
    _matrix_transient_and_period,
    _orbit_period,
    orbit_period,
    transient_and_period,
)
from .twosided import (
    IterationCapExceeded,
    Scaled,
    ScaledEquation,
    TwoSidedSystem,
    _cone_generators,
    _greatest,
    _holds,
    _integer_equation,
    _reduced,
    _unit_rays,
    _vector,
    satisfies,
)

Mode = Literal["exact_n2", "min_transient"]
Row = TypeVar("Row", tuple[Fraction, ...], tuple[int, ...])


def _distinct_pairs(pairs: Iterable[tuple[Row, Row]]) -> Iterator[tuple[Row, Row]]:
    """The pairs with unequal sides, each once up to swapping the sides."""
    seen: set[frozenset[Row]] = set()
    for lhs, rhs in pairs:
        if lhs == rhs:
            continue
        key = frozenset((lhs, rhs))
        if key in seen:
            continue
        seen.add(key)
        yield lhs, rhs


def _dedup_equations(
    pairs: Iterable[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]],
) -> tuple[tuple[MaxVector, MaxVector], ...]:
    """Drop trivially-satisfied rows and repeats (up to swapping the sides)."""
    return tuple((MaxVector(lhs), MaxVector(rhs)) for lhs, rhs in _distinct_pairs(pairs))


def _power_pair_system(a: MaxMatrix, lam: Fraction, t: int) -> TwoSidedSystem:
    """System lambda * A^t (x) == A^(t+1) (x), rows deduplicated."""
    pt = mat_power(a, t)
    pt1 = mat_mul(pt, a)
    rows = [(tuple(lam * v for v in pt.rows[i]), pt1.rows[i]) for i in range(a.n)]
    return TwoSidedSystem(a.n, _dedup_equations(rows))


def _matrix_spectral_data(a: MaxMatrix) -> tuple[Fraction, PeriodicityInfo]:
    """Eigenvalue, transient and period of a nonzero general matrix, from one Karp pass.

    Raises ``NotAdmissible`` outside the admissible class and ``ValueError``
    when the eigenvalue is irrational.
    """
    w, l = _admissible_lambda_class(a)
    lam = exact_kth_root(w, l)
    if lam is None:
        raise ValueError(
            "attraction system needs a rational eigenvalue; this matrix has an irrational one"
        )
    return lam, _matrix_transient_and_period(a, w, l)


def attraction_system_for_matrix(a: MaxMatrix) -> TwoSidedSystem:
    """System lambda * A^t (x) == A^(t+1) (x) at the transient t of A, rows deduplicated.

    Requires an admissible matrix with a rational greatest eigenvalue:
    ``NotAdmissible`` or ``ValueError`` is raised otherwise.  Lambda, the
    transient and the period come from one Karp pass.
    """
    if a.is_zero():
        return TwoSidedSystem(a.n, ())
    lam, info = _matrix_spectral_data(a)
    return _power_pair_system(a, lam, info.transient)


def attraction_system(c: Circulant, mode: Mode = "min_transient") -> TwoSidedSystem:
    """Defining system of the attraction cone of a circulant.

    'exact_n2' uses the exponent n^2, which is always past the transient for
    a circulant; 'min_transient' uses the transient itself, giving the same
    solution set with smaller coefficients.  The eigenvalue is the closed
    form ``circ_lambda``, so no cycle mean is computed.  The zero circulant
    yields the empty system (the attraction cone is the whole space).
    """
    if mode not in ("exact_n2", "min_transient"):
        raise ValueError(f"unknown mode: {mode!r}")
    if c.is_zero():
        return TwoSidedSystem(c.n, ())
    t = c.n * c.n if mode == "exact_n2" else transient_and_period(c).transient
    return _power_pair_system(expand(c), circ_lambda(c), t)


def reduced_attraction_system(c: Circulant) -> TwoSidedSystem:
    """Row-pair form of the attraction system of a nonzero circulant.

    For nodes i, j in the same critical component, row i and row j of A^(n^2)
    applied to x must agree.  A chain over each component's (sorted) nodes is
    equivalent to all pairs; duplicate and trivial rows are dropped.  A
    component with a single cyclic class contributes nothing: all its rows of
    A^(n^2) coincide.  The solution set is that of ``attraction_system``.

    A^(n^2) is taken on the defining row by repeated squaring, and its rows
    are rotations of that row; the components come from the gcd formula.
    """
    if c.is_zero():
        raise ValueError("zero circulant has no reduced attraction system")
    (power, den), spectral = _scaled_power(c, c.n * c.n), circ_spectral(c)
    return _row_pair_system(c.n, _row_pairs(power, spectral), den)


def _row_pairs(power: tuple[int, ...], spectral: CircSpectral) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Equations of ``reduced_attraction_system`` on the numerator row of A^(n^2).

    The rows share one denominator, so two are equal exactly when their
    numerators are, and the same pairs are dropped as on the entries.
    """
    n = len(power)
    # Row i (0-based) of the expanded power is its defining row rotated right by i.
    rows = [power[n - i :] + power[: n - i] for i in range(n)]
    pairs = ((rows[i - 1], rows[j - 1]) for comp in spectral.components for i, j in zip(comp, comp[1:]))
    return tuple(_distinct_pairs(pairs))


def _is_single_ray(spectral: CircSpectral) -> bool:
    """Whether the attraction cone of the circulant is the ray of (1, ..., 1).

    It is when exactly one entry of the row is maximal, at an offset coprime
    to n (n = 1 included), so the critical digraph is one Hamiltonian cycle.
    Only the all-critical path reaches lambda^(n^2), so the row of A^(n^2)
    is lambda^(n^2) at offset 0 and smaller elsewhere.  With one component
    the reduced system makes every (A^(n^2) x)_i agree; an x_i below max(x)
    would make the i-th one smaller than lambda^(n^2) max(x), which the
    index of max(x) reaches, so every x_j equals max(x).
    """
    return len(spectral.critical_offsets) + spectral.diagonal_is_maximal == 1 and spectral.component_count == 1


def _is_whole_space(spectral: CircSpectral) -> bool:
    """Whether the attraction cone of the circulant is the whole space.

    It is when the period is 1.  The critical components are isomorphic, so
    each has cyclicity 1: one cyclic class.  The normalized powers then
    stand still past the transient, and n^2 lies past it: A^(t+1) =
    lambda A^t for t >= n^2.  For nodes i, j of one component a critical
    walk from i to j of some length l has weight lambda^l, so row i of
    A^(n^2), which is row i of A^(n^2+l) / lambda^l, is at least row j of
    A^(n^2); the walk back gives the other inequality.  So each component's
    rows of A^(n^2) coincide, the reduced system has no equation, and every
    vector solves it.
    """
    return spectral.period == 1


def _is_dominated(a: Circulant, b: Circulant) -> bool:
    """Whether a <= b entrywise with max(a) = max(b) > 0: then the cone of a lies in that of b.

    The rows are compared first, which settles a swapped pair at its first
    larger entry.  Both eigenvalues are the largest entry lambda > 0; with
    N_A = A / lambda and N_B = B / lambda, N_A <= N_B entrywise, so
    N_A^k <= N_B^k for every k.  No commutativity is used.

    1. An offset m with a_m = lambda closes the walk i, i+m, i+2m, ...
       into a cycle of l = n / gcd(m, n) arcs of weight lambda through each
       node i, so every diagonal entry of N_A^l is at least 1 and
       N_A^(kl) >= I for every k >= 0.
    2. x in the cone of A means N_A^(n^2+1) x = N_A^(n^2) x, so y = N_A^u x
       is the same vector for every u >= n^2.  With kl >= n^2,
       y = N_A^(kl) x >= I x = x.
    3. The normalized powers of B are ultimately periodic, with a transient
       T_B <= n^2 (the exponent the defining systems use) and a period p:
       N_B^(t+p) = N_B^t for t >= T_B.
    4. Take u >= n^2 with u = 1 (mod p).  For t >= T_B + u,
       N_B^(t+1) x = N_B^(t+1-u) N_B^u x >= N_B^(t+1-u) N_A^u x
       = N_B^(t+1-u) y >= N_B^(t+1-u) x = N_B^t x,
       the last step since t+1-u = t (mod p) and both lie past T_B.
    5. So v_t = N_B^t x is nondecreasing from T_B + u on and p-periodic
       from T_B on: v_t <= v_(t+1) <= ... <= v_(t+p) = v_t forces
       v_(t+1) = v_t from T_B + u on, and by periodicity from T_B on.  At
       t = n^2 this is lambda B^(n^2) x = B^(n^2+1) x: x is in the cone of B.
    """
    return all(x <= y for x, y in zip(a.row, b.row)) and max(a.row) == max(b.row) > 0


def _row_pair_system(n: int, pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], den: int) -> TwoSidedSystem:
    """The row pairs as a system over the rationals, their numerators over ``den``."""
    return TwoSidedSystem(n, tuple((_vector((lhs, den)), _vector((rhs, den))) for lhs, rhs in pairs))


def in_attraction_cone(c: Circulant, x: MaxVector) -> bool:
    """Membership of ``x`` in the attraction cone of a circulant."""
    if x.n != c.n:
        raise DimensionMismatch(f"vector size {x.n} vs circulant size {c.n}")
    return satisfies(attraction_system(c), x)


def in_attraction_cone_matrix(a: MaxMatrix, x: MaxVector) -> bool:
    """Membership for a general admissible matrix, via the orbit period.

    The orbit of x reaches the eigencone exactly when its normalized eventual
    period is 1; the zero vector belongs to every attraction cone.
    """
    if x.n != a.n:
        raise DimensionMismatch(f"vector size {x.n} vs matrix size {a.n}")
    if a.is_zero():
        return True
    return orbit_period(a, x) == 1


# --- Kleene stars ------------------------------------------------------------


def kleene_star(a: MaxMatrix) -> MaxMatrix:
    """I + A + A^2 + ... + A^(n-1); defined when the maximum cycle mean is <= 1."""
    cm = max_cycle_mean(a)
    if cm is not None and cm.weight > 1:
        raise ValueError("Kleene star undefined: maximum cycle mean exceeds 1")
    return kleene_sum(a)


def is_kleene_star(a: MaxMatrix) -> bool:
    """Whether A equals its own Kleene star.

    Checked two equivalent ways (idempotent with unit diagonal; unit diagonal
    with the triangle inequality over all index triples); any disagreement is
    an implementation bug.
    """
    n = a.n
    diag_ok = all(a.rows[i][i] == 1 for i in range(n))
    first = diag_ok and mat_mul(a, a) == a
    second = diag_ok and all(
        a.rows[i][j] * a.rows[j][k] <= a.rows[i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
    if first != second:
        raise InternalError("Kleene-star criteria disagree")
    return first


# --- cancellation ------------------------------------------------------------


def cancel_reduce(system: TwoSidedSystem) -> TwoSidedSystem:
    """Delete strictly dominated cross-side terms; the solution set is unchanged.

    For each variable, a coefficient on one side that is strictly below the
    same variable's coefficient on the other side can be dropped: with
    c < c', the term c*x_v on its side is absorbed whenever c'*x_v competes
    on the other, and equality of sides survives the deletion both ways.
    Equal coefficients are kept verbatim on both sides.  Equations whose two
    sides become identical are dropped.
    """
    new_eqs: list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = []
    for lhs, rhs in system.equations:
        l = list(lhs.entries)
        r = list(rhs.entries)
        for j in range(system.n):
            if l[j] < r[j]:
                l[j] = ZERO
            elif r[j] < l[j]:
                r[j] = ZERO
        new_eqs.append((tuple(l), tuple(r)))
    return TwoSidedSystem(system.n, _dedup_equations(new_eqs))


# --- inclusion testing -------------------------------------------------------


@dataclass(frozen=True)
class InclusionVerdict:
    """Outcome of an attraction-cone inclusion check.

    Within the size limit of the first cone's generating set the verdict is
    exact: ``consistent`` proves inclusion, and otherwise the counterexample
    is a generator or a window eigenvector.  A circulant first cone that is
    the constant ray alone has that ray as its generating set at any n, and
    one of period 1 has the unit vectors, so their verdicts are always
    exact, and so is the ``consistent`` of a circulant pair a <= b with
    equal largest entries, which is proved.  Past the limit ``consistent``
    only means that no sampled member was a counterexample.  ``trials_run`` and
    ``members_tested`` are the sampler's counts, also when the trials were
    counted without being run.
    """

    consistent: bool
    counterexample: MaxVector | None
    trials_run: int
    members_tested: int


def _membership_test(m: Circulant | MaxMatrix, spectral: CircSpectral | None = None):
    """Membership of a ray, given by integer numerators, in the attraction cone of ``m``.

    Cones are scale invariant, so the numerators stand for the whole ray.  A
    circulant B answers a constant ray as a member at once: B 1 = lambda_B 1,
    so it is an eigenvector.  At its first other ray it takes its spectral
    data, unless the caller passes them as ``spectral``.  When its cone is
    the constant ray alone, the other rays are non-members; otherwise they
    are tested against its reduced system, built at the first of them.  A
    general matrix's rays are tested by their orbit period, with its
    admissibility checked once, at the first ray, where ``orbit_period``
    would raise.
    """
    if m.is_zero():
        return lambda nums: True
    if isinstance(m, Circulant):
        eqs: list[ScaledEquation] | None = None

        def member(nums: Sequence[int]) -> bool:
            nonlocal spectral, eqs
            if min(nums) == max(nums):
                return True
            if eqs is None:
                if spectral is None:
                    spectral = circ_spectral(m)
                if _is_single_ray(spectral):
                    return False
                power, _ = _scaled_power(m, m.n * m.n)
                eqs = [_integer_equation(lhs, rhs) for lhs, rhs in _row_pairs(power, spectral)]
            return _holds(eqs, nums)

        return member
    lambda_class: tuple[Fraction, int] | None = None

    def orbit_member(nums: Sequence[int]) -> bool:
        nonlocal lambda_class
        if lambda_class is None:
            lambda_class = _admissible_lambda_class(m)
        return _orbit_period(m, MaxVector(tuple(map(Fraction, nums))), *lambda_class) == 1

    return orbit_member


def _period_window_eigenvectors(m: MaxMatrix, lam: Fraction, info: PeriodicityInfo) -> list[MaxVector]:
    """One eigenvector per coordinate: max over a full period window of columns.

    With lambda rational, T the transient and p the period, the entrywise
    max of the columns of (A/lambda)^T .. (A/lambda)^(T+p-1) is an
    eigenvector, hence a member of the attraction cone.  Normalization is
    skipped (cones are scale invariant).
    """
    scaled = m.scale(ONE / lam)
    powers = [mat_power(scaled, info.transient)]
    for _ in range(info.period - 1):
        powers.append(mat_mul(powers[-1], scaled))
    out = []
    for j in range(m.n):
        col = powers[0].column(j)
        for p in powers[1:]:
            col = col.max_with(p.column(j))
        if not col.is_zero():
            out.append(col)
    return out


def _circulant_window_eigenvectors(c: Circulant, power: tuple[int, ...], spectral: CircSpectral) -> list[Scaled]:
    """``_period_window_eigenvectors`` of a nonzero circulant, as integer columns over one denominator.

    ``power`` is the numerator row of A^(n^2) over D^(n^2), with D the lcm of
    the denominators of A's row, and ``spectral`` is A's spectral data.  Past
    the transient the window's set of powers does not depend on where it
    starts, so it starts at n^2 with A^(n^2) / lambda^(n^2) = (A/lambda)^(n^2).
    Later powers are taken on defining rows, and p is the gcd-formula period.

    With A's row N / D and W the largest numerator, (A/lambda)^t is
    N_t / W^t, where N_t is the numerator row of A^t over D^t.  Over the
    common denominator W^(n^2+p-1) the window is the max over s of
    N_(n^2+s) * W^(p-1-s), accumulated as max(window * W, N_(n^2+s)).
    """
    n = c.n
    nums, _ = _scaled(c.row)
    w = max(nums)
    window = current = power
    for _ in range(spectral.period - 1):
        current = _int_product(current, nums)
        window = tuple(max(x * w, v) for x, v in zip(window, current))
    scale = w ** (n * n + spectral.period - 1)
    columns = (tuple(window[(j - i) % n] for i in range(n)) for j in range(n))
    return [(col, scale) for col in columns if any(col)]


def _consistent(tested: int, trials: int) -> InclusionVerdict:
    """The consistent verdict once ``tested`` probes and every generator of the first cone passed.

    Every greatest solution is a max-combination of the generators, so it
    lies in the max cone of ``b``; below a positive upper bound it is a
    nonzero ray and is counted.  Each trial therefore adds one member, and
    one max-combination once two members are known; the draws only choose
    which members, so nothing is drawn.
    """
    members = tested + 2 * trials - max(0, min(trials, 2 - tested))
    return InclusionVerdict(True, None, trials_run=trials, members_tested=members)


def check_attraction_inclusion(
    a: Circulant | MaxMatrix,
    b: Circulant | MaxMatrix,
    trials: int = 200,
    seed: int = 0,
) -> InclusionVerdict:
    """Search for a member of the attraction cone of ``a`` outside that of ``b``.

    Window eigenvectors of ``a`` (columns of a period window of normalized
    powers) are probed first, and the first one outside the second cone is
    the counterexample.  Then the generating set of the first cone, when
    within its size limit, decides: a max cone is the max-span of its
    generators, so the first cone lies in the second exactly when every
    generator does.  The first failing generator, in generator order, is the
    counterexample, and no trial runs.  When all of them pass, every trial
    would pass too, so the verdict is consistent and the trials are counted
    without being run.

    Only past the size limit do the trials run: greatest solutions of the
    defining system below randomized upper bounds (drawn from entry ratios
    of ``a``), each tested against the second cone, and random
    max-combinations of members already found.  Both cones are max cones, so
    a max-combination of members lies in both: it is counted, never formed.
    The first failure is the counterexample; otherwise the verdict is
    consistent, which then only means that no counterexample was found.

    Vectors are integer numerators over one denominator throughout.

    Two circulants with a nonzero ``a`` <= ``b`` entrywise and max(a) =
    max(b) are decided before anything is built: the cone of ``a`` lies in
    that of ``b`` (see ``_is_dominated``), so the verdict is consistent, and
    exact at any n, with the counts of the generator path: its n window
    columns tested, then every trial counted.

    A circulant operand's cone is defined by ``reduced_attraction_system``,
    whose solution set is that of ``attraction_system``: for two circulants
    no transient, cycle mean or matrix power is computed.  A circulant ``a``
    reads its window eigenvectors and its system off one A^(n^2) and one
    ``circ_spectral``, on integer numerators over one denominator; its
    system over the rationals is built only past the generator limit, where
    the sampler reads it.  A circulant ``a`` with one maximal entry, at an
    offset coprime to n, takes only ``circ_spectral``: its cone is the ray
    of (1, ..., 1), which is its one generator and each of its n window
    columns, so it is decided exactly at any n.  A circulant ``a`` of
    period 1 has the whole space as its cone.  Against a zero ``b`` or a
    circulant ``b`` of period 1, whose cone is the whole space too, the
    verdict is consistent from the two spectral passes alone, with the
    counts of the generator path: its n window columns tested, then every
    trial counted.  Against any other ``b`` it takes the route of any
    other circulant ``a``: it has no row pairs, so its generators are the
    unit vectors.  A circulant ``b`` answers a constant ray as a member
    without building anything.  At the first other ray it takes its
    spectral pass, which is taken at most once per call, also when ``a``
    has asked whether the cone of ``b`` is the whole space; then it answers
    every other ray as a non-member when its cone is the constant ray, and
    otherwise builds its power and row pairs.  A general ``a`` takes its
    eigenvalue, transient and period from one Karp pass and one
    power-sequence detection, which serve both its window and its system.
    A general ``b`` is tested by its orbit period.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative: got {trials}")
    if a.n != b.n:
        raise DimensionMismatch(f"matrix sizes differ: {a.n} vs {b.n}")
    n = a.n
    if isinstance(a, Circulant) and isinstance(b, Circulant) and _is_dominated(a, b):
        # The cone of ``a`` lies in that of ``b``: its n window columns and
        # then every generator or trial would pass.
        return _consistent(n, trials)
    spectral_a = circ_spectral(a) if isinstance(a, Circulant) and not a.is_zero() else None
    spectral_b = None
    if spectral_a is not None and _is_whole_space(spectral_a) and isinstance(b, Circulant):
        spectral_b = None if b.is_zero() else circ_spectral(b)
        if spectral_b is None or _is_whole_space(spectral_b):
            # Both cones are the whole space.  Every probe passes: the n
            # window columns of ``a``, rotations of its nonzero row of
            # A^(n^2), and then its unit-vector generators.
            return _consistent(n, trials)
    # Every probe lies in the cone of ``a`` by construction: a unit vector
    # when ``a`` is zero, a window eigenvector, a generator of its system or
    # a greatest solution of it, which ``_cone_generators`` and ``_greatest``
    # check.  For an admissible ``a`` that system's solution set is the cone,
    # so only the cone of ``b`` is tested.
    in_b = _membership_test(b, spectral_b)
    tested = 0

    def probe(x: Scaled) -> MaxVector | None:
        nonlocal tested
        g = gcd(*x[0])
        if not g:
            return None
        tested += 1
        return None if in_b(tuple(v // g for v in x[0])) else _vector(x)

    if a.is_zero():
        # Attraction cone of the zero matrix is the whole space.
        for unit in _unit_rays(n):
            bad = probe((unit, 1))
            if bad is not None:
                return InclusionVerdict(False, bad, trials_run=0, members_tested=tested)
        return InclusionVerdict(True, None, trials_run=0, members_tested=tested)

    # ``cone_a`` gives A's generators (None past the limit) and a builder of
    # its system, which only the sampler reads: its cap and its sweep.  It
    # runs only when no eigenvector is a counterexample.
    if isinstance(a, Circulant):
        values = a.row
        if _is_single_ray(spectral_a):
            # The n window columns and the one generator are all (1, ..., 1).
            ones = (1,) * n
            eigenvectors = [(ones, 1)] * n
            cone_a = lambda: ((ones,), None)
        else:
            power, den = _scaled_power(a, n * n)
            eigenvectors = _circulant_window_eigenvectors(a, power, spectral_a)

            def cone_a():
                pairs = _row_pairs(power, spectral_a)
                generators = _cone_generators(n, [_integer_equation(lhs, rhs) for lhs, rhs in pairs])
                return generators, lambda: _row_pair_system(n, pairs, den)

    else:
        lam, info = _matrix_spectral_data(a)
        eigenvectors = [_scaled(v.entries) for v in _period_window_eigenvectors(a, lam, info)]
        values = [v for row in a.rows for v in row]

        def cone_a():
            system_a = _power_pair_system(a, lam, info.transient)
            return system_a._generators, lambda: system_a

    for x in eigenvectors:
        bad = probe(x)
        if bad is not None:
            return InclusionVerdict(False, bad, trials_run=0, members_tested=tested)

    generators, build_system_a = cone_a()
    if generators is not None:
        # A max cone is the max-span of its generators, so it lies in the
        # cone of ``b`` exactly when every generator does.
        bad = next((g for g in generators if not in_b(g)), None)
        if bad is not None:
            return InclusionVerdict(False, _vector((bad, 1)), trials_run=0, members_tested=tested + 1)
        return _consistent(tested, trials)
    system_a = build_system_a()
    entries = sorted({v for v in values if v > 0})
    pool_nums, pool_den = _scaled(sorted({x / y for x in entries for y in entries} | {ONE}))
    cap = system_a.iteration_cap
    rng = random.Random(seed)
    for trial in range(trials):
        upper = _reduced([rng.choice(pool_nums) for _ in range(n)], pool_den)
        try:
            g = _greatest(system_a, upper, cap)
        except IterationCapExceeded:
            continue
        # A max-combination of two members with two pool coefficients lies in
        # both cones, so it is counted and not formed.  Its four draws are
        # still taken: they fix the upper bounds of the later trials.
        combined = tested >= 2
        if combined:
            rng.randrange(tested)
            rng.randrange(tested)
            rng.choice(pool_nums)
            rng.choice(pool_nums)
        bad = probe(g)
        if bad is not None:
            return InclusionVerdict(False, bad, trials_run=trial + 1, members_tested=tested)
        if combined:
            tested += 1
    return InclusionVerdict(True, None, trials_run=trials, members_tested=tested)
