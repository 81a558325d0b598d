"""Exact arithmetic for the max-times semiring over nonnegative rationals.

Scalars are nonnegative ``fractions.Fraction`` values.  Semiring addition is
``max`` and semiring multiplication is ordinary multiplication, so every
quantity computed by this library stays an exact rational and all equality
tests are exact: there is never a tolerance anywhere.

Vectors and matrices are immutable; every operation is a pure function, so
values can be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import lcm

ScalarLike = Fraction | int | str
Scaled = tuple[tuple[int, ...], int]  # integer numerators over one positive denominator

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class InternalError(RuntimeError):
    """A cross-check that must hold unconditionally failed (implementation bug)."""


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, string like ``"3/4"``, or Fraction to a nonnegative Fraction.

    A string is an integer or ``"p/q"``, or anything else the interpreter's
    ``Fraction`` parses (signs, surrounding whitespace, decimals and, as that
    version allows, underscores), except exponent notation.  The canonical
    forms, decimal digits around at most one ``"/"`` (any Unicode ``Nd`` digit,
    which is what ``Fraction``'s ``\\d`` matches), are converted with ``int``
    directly; only the other strings go through ``Fraction``'s regex.

    Floats are rejected: they would smuggle rounding into an exact computation.
    So is exponent notation in a string: ``Fraction`` would compute the power
    of ten in full, so nine characters could ask for a ten-million-bit integer.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted; write an integer or 'p/q': {value!r}")
    elif isinstance(value, float):
        raise TypeError(f"floats are not exact; pass an int, Fraction or 'p/q' string: {value!r}")
    q = value if isinstance(value, Fraction) else Fraction(value)
    if q.numerator < 0:  # a Fraction's denominator is positive
        raise ValueError(f"negative value not allowed in the max-times semiring: {value!r}")
    return q


def _scaled(values: Sequence[Fraction]) -> Scaled:
    """Numerators over the lcm of the denominators (already in lowest terms)."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


_RECORD_METHODS = """\
def __init__(self{params}):
{stores}
def __eq__(self, other): return {this} == {that} if other.__class__ is self.__class__ else NotImplemented
def __hash__(self): return hash({this})
"""


class Record:
    """Base of the library's immutable values: records of named fields.

    Fields are the annotations, after the inherited ones; defaults are class
    attributes.  Each subclass gets a generated ``__init__`` (which calls
    ``__post_init__`` if defined), a type-strict ``__eq__`` and the field
    tuple's ``__hash__``.  Assignment and deletion raise ``AttributeError``;
    instances keep a ``__dict__`` for ``cached_property``.  The ``repr`` is
    ``Name(field=value, ...)`` unless a class defines its own.  This stands
    in for the standard library's record decorator, which is slow to import.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls._fields + tuple(f for f in cls.__annotations__ if f not in cls._fields)
        ns = {"_set": object.__setattr__} | {f"_default_{f}": getattr(cls, f) for f in fields if hasattr(cls, f)}
        params = "".join(f", {f}=_default_{f}" if f"_default_{f}" in ns else f", {f}" for f in fields)
        stores = [f"    _set(self, {f!r}, {f})" for f in fields]
        stores += ["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        this = "(" + "".join(f"self.{f}, " for f in fields) + ")"
        that = this.replace("self.", "other.")
        exec(_RECORD_METHODS.format(params=params, stores="\n".join(stores), this=this, that=that), ns)
        for name in ("__init__", "__eq__", "__hash__"):
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MaxVector(Record):
    """Dense vector of nonnegative rationals."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("vector must have at least one entry")

    @classmethod
    def of(cls, values: Iterable[ScalarLike]) -> "MaxVector":
        return cls(tuple(as_scalar(v) for v in values))

    @classmethod
    def zeros(cls, n: int) -> "MaxVector":
        return cls((ZERO,) * n)

    @classmethod
    def unit(cls, n: int, i: int) -> "MaxVector":
        """Vector with a single 1 at 0-based position ``i``."""
        if not 0 <= i < n:
            raise ValueError(f"unit position {i} is outside 0..{n - 1}")
        return cls(tuple(ONE if j == i else ZERO for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def scale(self, c: ScalarLike) -> "MaxVector":
        f = as_scalar(c)
        return MaxVector(tuple(f * v for v in self.entries))

    def max_with(self, other: "MaxVector") -> "MaxVector":
        if self.n != other.n:
            raise DimensionMismatch(f"vector sizes differ: {self.n} vs {other.n}")
        return MaxVector(tuple(max(a, b) for a, b in zip(self.entries, other.entries)))

    def leq(self, other: "MaxVector") -> bool:
        if self.n != other.n:
            raise DimensionMismatch(f"vector sizes differ: {self.n} vs {other.n}")
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    def __repr__(self) -> str:
        return "MaxVector(" + ", ".join(str(v) for v in self.entries) + ")"


class MaxMatrix(Record):
    """Dense square matrix of nonnegative rationals, row-major."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n < 1:
            raise ValueError("matrix must be at least 1x1")
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def of(cls, rows: Iterable[Iterable[ScalarLike]]) -> "MaxMatrix":
        return cls(tuple(tuple(as_scalar(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "MaxMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "MaxMatrix":
        return cls(((ZERO,) * n,) * n)

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> MaxVector:
        return MaxVector(tuple(r[j] for r in self.rows))

    def scale(self, c: ScalarLike) -> "MaxMatrix":
        f = as_scalar(c)
        return MaxMatrix(tuple(tuple(f * v for v in row) for row in self.rows))

    def entrywise_max(self, other: "MaxMatrix") -> "MaxMatrix":
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")
        return MaxMatrix(
            tuple(tuple(max(a, b) for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def leq(self, other: "MaxMatrix") -> bool:
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")
        return all(a <= b for r, s in zip(self.rows, other.rows) for a, b in zip(r, s))

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.rows for v in r)

    def __repr__(self) -> str:
        body = "; ".join("(" + ", ".join(str(v) for v in row) + ")" for row in self.rows)
        return f"MaxMatrix[{body}]"


def power_by_squaring(base, t: int, mul, identity):
    """``base`` to the t-th power under the associative product ``mul``.

    Repeated squaring; ``t == 0`` returns ``identity``.
    """
    if t < 0:
        raise ValueError("exponent must be nonnegative")
    result = None
    while t > 0:
        if t & 1:
            result = base if result is None else mul(result, base)
        t >>= 1
        if t:
            base = mul(base, base)
    return identity if result is None else result


def mat_mul(a: MaxMatrix, b: MaxMatrix) -> MaxMatrix:
    """Max-times matrix product: entry (i,k) is max over j of a[i,j]*b[j,k]."""
    if a.n != b.n:
        raise DimensionMismatch(f"matrix sizes differ: {a.n} vs {b.n}")
    n = a.n
    bt = tuple(tuple(b.rows[j][k] for j in range(n)) for k in range(n))
    out = []
    for i in range(n):
        ra = a.rows[i]
        out.append(tuple(max(ra[j] * col[j] for j in range(n)) for col in bt))
    return MaxMatrix(tuple(out))


def mat_power(a: MaxMatrix, t: int) -> MaxMatrix:
    """Exact t-th max-times power by repeated squaring.

    ``t == 0`` returns the identity matrix; this is an extension for caller
    convenience (the product of an empty sequence of factors).
    """
    return power_by_squaring(a, t, mat_mul, MaxMatrix.identity(a.n))


def kleene_sum(a: MaxMatrix) -> MaxMatrix:
    """I + A + A^2 + ... + A^(n-1), computed as (I + A)^(n-1).

    The two agree because max, the semiring addition, is idempotent.  No
    cycle-mean condition is checked here.
    """
    return mat_power(a.entrywise_max(MaxMatrix.identity(a.n)), a.n - 1)


def mat_vec(a: MaxMatrix, x: MaxVector) -> MaxVector:
    """Max-times matrix-vector product."""
    if a.n != x.n:
        raise DimensionMismatch(f"matrix size {a.n} vs vector size {x.n}")
    xs = x.entries
    return MaxVector(tuple(max(row[j] * xs[j] for j in range(a.n)) for row in a.rows))


def orbit(a: MaxMatrix, x: MaxVector, horizon: int) -> tuple[MaxVector, ...]:
    """The sequence (x, a@x, a^2@x, ..., a^horizon@x), of length horizon+1."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    out = [x]
    cur = x
    for _ in range(horizon):
        cur = mat_vec(a, cur)
        out.append(cur)
    return tuple(out)


def exact_kth_root(value: Fraction, k: int) -> Fraction | None:
    """The exact rational k-th root of ``value``, or None if it is irrational."""
    if k < 1:
        raise ValueError("root index must be positive")
    if value < 0:
        raise ValueError("value must be nonnegative")
    if k == 1 or value == 0 or value == 1:
        return value
    num = _int_kth_root(value.numerator, k)
    if num is None:
        return None
    den = _int_kth_root(value.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def _int_kth_root(m: int, k: int) -> int | None:
    """Integer r with r**k == m, or None."""
    if m in (0, 1):
        return m
    lo, hi = 1, 1
    while hi**k < m:
        lo, hi = hi, hi * 2
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid**k
        if p == m:
            return mid
        if p < m:
            lo = mid + 1
        else:
            hi = mid - 1
    return None
