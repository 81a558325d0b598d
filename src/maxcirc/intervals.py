"""Scalar intervals with independent bracket kinds, and boxes (their products).

Each interval takes one of the four forms [l,u], (l,u), [l,u), (l,u]; the
bracket kind is tracked per endpoint.  Degenerate intervals (l == u) must be
closed on both sides so that the interval is nonempty.
"""

from __future__ import annotations

from fractions import Fraction

from .core import MaxVector, Record, ScalarLike, as_scalar

BRACKET_TOKENS = ("[]", "[)", "(]", "()")


class ScalarInterval(Record):
    """Nonempty interval of nonnegative rationals, each end closed or open."""

    lower: Fraction
    upper: Fraction
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError("interval bounds must be nonnegative")
        if self.lower > self.upper:
            raise ValueError(f"empty interval: lower {self.lower} > upper {self.upper}")
        if self.lower == self.upper and not (self.lower_closed and self.upper_closed):
            raise ValueError("degenerate interval must be closed on both sides")

    @classmethod
    def of(
        cls,
        lower: ScalarLike,
        upper: ScalarLike,
        brackets: str = "[]",
    ) -> "ScalarInterval":
        if brackets not in BRACKET_TOKENS:
            raise ValueError(f"bracket token must be one of {BRACKET_TOKENS}: {brackets!r}")
        return cls(
            lower=as_scalar(lower),
            upper=as_scalar(upper),
            lower_closed=brackets[0] == "[",
            upper_closed=brackets[1] == "]",
        )

    @classmethod
    def point(cls, value: ScalarLike) -> "ScalarInterval":
        v = as_scalar(value)
        return cls(v, v)

    @property
    def brackets(self) -> str:
        return ("[" if self.lower_closed else "(") + ("]" if self.upper_closed else ")")

    @property
    def is_closed(self) -> bool:
        return self.lower_closed and self.upper_closed

    def contains(self, v: Fraction) -> bool:
        if v < self.lower or (v == self.lower and not self.lower_closed):
            return False
        if v > self.upper or (v == self.upper and not self.upper_closed):
            return False
        return True

    def interior_point(self) -> Fraction:
        """Some element of the interval, preferring the lower closure bound.

        A closed lower end lies below an open upper end, because a degenerate
        interval is closed on both sides; an open lower end forces
        lower < upper, so the midpoint lies strictly inside.
        """
        if self.lower_closed:
            return self.lower
        return (self.lower + self.upper) / 2

    def __repr__(self) -> str:
        return f"{self.brackets[0]}{self.lower}, {self.upper}{self.brackets[1]}"


class Box(Record):
    """Cartesian product of scalar intervals, one per coordinate."""

    intervals: tuple[ScalarInterval, ...]

    def __post_init__(self) -> None:
        if len(self.intervals) < 1:
            raise ValueError("box needs at least one coordinate")

    @classmethod
    def of(cls, items) -> "Box":
        out = []
        for item in items:
            if isinstance(item, ScalarInterval):
                out.append(item)
            else:
                out.append(ScalarInterval.of(*item))
        return cls(tuple(out))

    @classmethod
    def point(cls, values) -> "Box":
        return cls(tuple(ScalarInterval.point(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def is_closed(self) -> bool:
        return all(iv.is_closed for iv in self.intervals)

    def contains(self, x: MaxVector) -> bool:
        if x.n != self.n:
            return False
        return all(iv.contains(v) for iv, v in zip(self.intervals, x.entries))

    def closure_lower(self) -> MaxVector:
        return MaxVector(tuple(iv.lower for iv in self.intervals))

    def closure_upper(self) -> MaxVector:
        return MaxVector(tuple(iv.upper for iv in self.intervals))

    def interior_point(self) -> MaxVector:
        """A point of the box: lower corner when closed, nudged inward where open."""
        return MaxVector(tuple(iv.interior_point() for iv in self.intervals))
