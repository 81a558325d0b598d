"""Ultimate periodicity of normalized matrix powers and vector orbits.

For an admissible matrix A (completely reducible, every component of the
associated digraph having the same positive maximum cycle mean - circulants
always qualify), the sequence (A/lambda)^t is ultimately periodic.  This
module finds the exact transient and period, plus the eventual period of a
single normalized orbit (A/lambda)^t (x) for a starting vector x.

Normalized powers are never materialized when lambda is irrational: with the
cycle-mean class (w, l), the tuple of values A^t[i,j]^l / w^t is an injective
exact-rational fingerprint of (A/lambda)^t, so repetition of fingerprints is
repetition of normalized powers.  Since each power is a deterministic
function of the previous one, the first fingerprint repeat yields the minimal
transient and the minimal period simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .circulant import Circulant, _int_product, circ_spectral, expand
from .core import DimensionMismatch, InternalError, MaxMatrix, MaxVector, _scaled, mat_mul, mat_vec
from .digraph import component_cycle_means, pair_eq

# Hard stop for repeat detection.  The (n-1)^2+1 transient bound is proved
# for circulants, so a circulant's power sequence that reaches this cap is an
# implementation bug.  General admissible matrices can exceed the bound (the
# transient then depends on the entries, not just n), and one whose repeat
# lies past the cap is rejected as an input the detector cannot answer.
HARD_DETECTION_CAP = 20000


class NotAdmissible(ValueError):
    """The normalized powers or orbit of the matrix cannot be shown periodic.

    Either the matrix is outside the class whose normalized powers are known
    to be periodic, or it is a general matrix whose repeat is not found
    within ``HARD_DETECTION_CAP`` steps.
    """


@dataclass(frozen=True)
class PeriodicityInfo:
    transient: int
    period: int


def _admissible_lambda_class(a: Circulant | MaxMatrix) -> tuple[Fraction, int]:
    """Validate the admissibility preconditions; return the cycle-mean class.

    Requires complete reducibility and that every component with a cycle has
    the same maximum cycle mean, which must be positive.  A nonzero circulant
    always qualifies, and its class is (largest row entry, 1).
    """
    if isinstance(a, Circulant):
        reducible, classes = True, [] if a.is_zero() else [(max(a.row), 1)]
    else:
        reducible, classes = component_cycle_means(a)
    if not reducible:
        raise NotAdmissible(
            "ultimate periodicity not guaranteed: matrix is not completely reducible"
        )
    if not classes:
        raise NotAdmissible("ultimate periodicity not guaranteed: maximum cycle mean is zero")
    first = classes[0]
    for other in classes[1:]:
        if not pair_eq(first, other):
            raise NotAdmissible(
                "ultimate periodicity not guaranteed: components have unequal cycle means"
            )
    return first


def _entries_fingerprint(values: tuple[Fraction, ...], w: Fraction, l: int, t: int) -> tuple:
    if w == 1 and l == 1:
        return values
    scale = w**t
    if l == 1:
        return tuple(v / scale for v in values)
    return tuple((v**l) / scale for v in values)


def _detect_repeat(step, first, entries, w: Fraction, l: int) -> tuple[int, int]:
    """First fingerprint repeat of a deterministically iterated state.

    ``step`` advances the raw state at time t to time t + 1, starting from
    ``first`` at time 1, and ``entries`` reads a state's values.  States are
    fingerprinted after normalization, so a repeat at times (t1, t2) means
    the normalized states coincide, giving transient t1 and period t2 - t1,
    both minimal.  Raises ``NotAdmissible`` when no repeat occurs within
    ``HARD_DETECTION_CAP`` steps.
    """
    seen: dict[tuple, int] = {}
    state = first
    t = 1
    while t <= HARD_DETECTION_CAP:
        key = _entries_fingerprint(entries(state), w, l, t)
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
        state = step(state)
        t += 1
    raise NotAdmissible(f"no repetition within the detection cap of {HARD_DETECTION_CAP} steps")


def _flat_entries(a: MaxMatrix) -> tuple[Fraction, ...]:
    return tuple(v for r in a.rows for v in r)


def transient_and_period(a: Circulant | MaxMatrix) -> PeriodicityInfo:
    """Minimal transient and ultimate period of the normalized power sequence.

    Powers of a ``Circulant`` are taken on defining rows of integer
    numerators: with the row N / D and W the largest numerator, lambda is
    W / D and the normalized t-th power is N_t / W^t, so the repeat is
    detected on N_t with the class (W, 1).  The result is cross-checked
    against the closed-form period and the (n-1)^2+1 transient bound;
    failure of either check, or no repeat within ``HARD_DETECTION_CAP``
    steps, raises ``InternalError``.  A ``MaxMatrix`` whose repeat is not
    found within the cap raises ``NotAdmissible``.
    """
    w, l = _admissible_lambda_class(a)
    if isinstance(a, MaxMatrix):
        return _matrix_transient_and_period(a, w, l)
    nums, _ = _scaled(a.row)
    try:
        # W as a Fraction: the fingerprint divides by W^t exactly, not as floats.
        transient, period = _detect_repeat(
            lambda p: _int_product(p, nums), nums, tuple, Fraction(max(nums)), 1
        )
    except NotAdmissible as exc:  # the transient bound makes this a bug
        raise InternalError(str(exc)) from exc
    expected = circ_spectral(a).period
    if period != expected:
        raise InternalError(f"power period {period} != circulant formula period {expected}")
    if transient > (a.n - 1) ** 2 + 1:
        raise InternalError(
            f"circulant transient {transient} exceeds the (n-1)^2+1 bound"
        )
    return PeriodicityInfo(transient=transient, period=period)


def _matrix_transient_and_period(a: MaxMatrix, w: Fraction, l: int) -> PeriodicityInfo:
    """``transient_and_period`` for a matrix whose cycle-mean class (w, l) is already validated."""
    transient, period = _detect_repeat(lambda p: mat_mul(p, a), a, _flat_entries, w, l)
    return PeriodicityInfo(transient=transient, period=period)


def orbit_period(a: Circulant | MaxMatrix, x: MaxVector) -> int:
    """Minimal eventual period of the normalized orbit of ``x`` under ``a``.

    Equals 1 exactly when the orbit of x reaches an eigenvector (or the zero
    vector), i.e. when x lies in the attraction cone of the greatest
    eigenvalue.  An orbit whose repeat is not found within
    ``HARD_DETECTION_CAP`` steps raises ``NotAdmissible``.
    """
    if a.n != x.n:
        raise DimensionMismatch(f"matrix size {a.n} vs vector size {x.n}")
    w, l = _admissible_lambda_class(a)
    return _orbit_period(expand(a) if isinstance(a, Circulant) else a, x, w, l)


def _orbit_period(m: MaxMatrix, x: MaxVector, w: Fraction, l: int) -> int:
    """``orbit_period`` for a matrix whose cycle-mean class (w, l) is already validated."""
    _, period = _detect_repeat(lambda v: mat_vec(m, v), mat_vec(m, x), attrgetter("entries"), w, l)
    return period
