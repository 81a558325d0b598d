"""Interval circulants, corner objects, and the six robustness classifiers.

An interval circulant is the set of circulants whose defining row lies in
a box, and its corner matrices are that box's corner vectors read as
circulants; a second box constrains the starting vector.  Six robustness
questions arise from quantifier combinations over "matrix in the interval"
and "vector in the box", asking when the vector's orbit reaches an
eigenvector.  Each is decided through its exact characterization:

- possibly box-robust      (some matrix absorbs the whole box): corner
  vectors against the envelope circulant.
- universally box-robust   (every matrix absorbs the whole box): corner
  vectors against every corner matrix.
- tolerance box-robust     (every matrix absorbs some box point): per-corner
  matrix, feasibility of its attraction system inside the box; requires a
  closed box.
- weakly tolerance robust  (some matrix absorbs some box point): feasibility
  for the envelope circulant.
- box possibly robust      (some box point absorbed by every matrix):
  simultaneous feasibility of all corner systems.
- box tolerance robust     (every box point absorbed by some matrix):
  equivalent to possibly box-robust.

Characterizations that assume the envelope circulant lies inside the
interval, or a closed box, surface ``hypothesis_not_met`` instead of
guessing when the assumption fails.
"""

from __future__ import annotations

from fractions import Fraction

from .attraction import attraction_system, in_attraction_cone
from .circulant import Circulant
from .core import DimensionMismatch, InternalError, MaxVector, Record
from .intervals import Box
from .twosided import IterationCapExceeded, feasible_in_box, simultaneous_feasible

YES = "yes"
NO = "no"
UNKNOWN = "unknown_strict_boundary"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"


class IntervalCirculant(Box):
    """Set of circulants whose defining row lies in a box of entry intervals.

    As a box it also serves wherever a vector box is expected.
    """

    def contains(self, x: Circulant | MaxVector) -> bool:
        """Whether a circulant, by its defining row, or a point lies in the box."""
        return super().contains(MaxVector(x.row) if isinstance(x, Circulant) else x)


def corner_vector(box: Box, k: int) -> MaxVector:
    """Lower closure bounds everywhere, upper closure bound at 1-based k.

    Closure values are used regardless of bracket kinds: the corner vectors
    are vertices of the box closure.
    """
    if not (1 <= k <= box.n):
        raise ValueError(f"coordinate {k} out of range 1..{box.n}")
    return MaxVector(
        tuple(
            iv.upper if i == k - 1 else iv.lower for i, iv in enumerate(box.intervals)
        )
    )


def corner_matrix(ic: IntervalCirculant, k: int) -> Circulant:
    """Corner vector k + 1 of the defining-row box, read as a circulant (0-based offset k)."""
    if not (0 <= k <= ic.n - 1):
        raise ValueError(f"offset {k} out of range 0..{ic.n - 1}")
    return Circulant(corner_vector(ic, k + 1).entries)


def envelope_circulant(ic: IntervalCirculant) -> Circulant:
    """Circulant with entries min(largest lower bound, per-entry upper bound).

    Among members of the interval, its normalization dominates every other
    member's normalization, which is what makes it decide the existential
    matrix quantifiers.  Its eigenvalue is the largest lower bound whenever
    that is nonzero.
    """
    base = max(iv.lower for iv in ic.intervals)
    return Circulant(tuple(min(base, iv.upper) for iv in ic.intervals))


def envelope_in_interval(ic: IntervalCirculant) -> bool:
    """Whether the envelope circulant is itself a member, honoring brackets."""
    return ic.contains(envelope_circulant(ic))


def decompose_in_box(x: MaxVector, box: Box) -> tuple[Fraction, ...]:
    """Coefficients expressing x as a max-combination of the corner vectors.

    beta_k = x_k / upper_k; the reconstruction  max_k beta_k * corner_k
    reproduces x exactly and is verified before returning.  Rejected when
    some coordinate's upper closure bound is zero (the quotient is undefined)
    or when x lies outside the box closure.
    """
    if x.n != box.n:
        raise DimensionMismatch(f"vector size {x.n} vs box size {box.n}")
    for i, (v, iv) in enumerate(zip(x.entries, box.intervals)):
        if iv.upper == 0:
            raise ValueError(f"coordinate {i + 1} has zero upper bound; decomposition undefined")
        if not (iv.lower <= v <= iv.upper):
            raise ValueError(f"vector is outside the box closure at coordinate {i + 1}")
    betas = tuple(v / iv.upper for v, iv in zip(x.entries, box.intervals))
    rebuilt = MaxVector.zeros(box.n)
    for k, beta in enumerate(betas, start=1):
        rebuilt = rebuilt.max_with(corner_vector(box, k).scale(beta))
    if rebuilt != x:
        raise InternalError("corner decomposition failed to reconstruct the vector")
    return betas


class Verdict(Record):
    """One classifier outcome: yes / no / unknown_strict_boundary / hypothesis_not_met."""

    status: str
    reason: str | None = None

    @property
    def decided(self) -> bool:
        return self.status in (YES, NO)


def _from_bool(flag: bool) -> Verdict:
    return Verdict(YES if flag else NO)


def _feasibility_verdict(solve, *args) -> Verdict:
    """Verdict of the feasibility call ``solve(*args)``.

    An iteration cap that the enumeration fallback cannot settle is an
    undecided outcome, reported as unknown with the cap as its reason.
    """
    try:
        result = solve(*args)
    except IterationCapExceeded as exc:
        return Verdict(UNKNOWN, f"iteration cap: {exc}")
    if result.status == "feasible":
        return Verdict(YES)
    if result.status == "infeasible":
        return Verdict(NO)
    return Verdict(UNKNOWN)


class RobustnessReport(Record):
    """The six classifier verdicts for one (interval circulant, box) instance."""

    possibly_box_robust: Verdict
    universally_box_robust: Verdict
    tolerance_box_robust: Verdict
    weak_tolerance_box_robust: Verdict
    box_possibly_robust: Verdict
    box_tolerance_robust: Verdict

    def as_dict(self) -> dict[str, Verdict]:
        """The six verdicts by classifier name, in field order."""
        return {name: getattr(self, name) for name in self._fields}

    def hypotheses_all_unmet(self) -> bool:
        """Every hypothesis-carrying classifier reported its hypothesis unmet.

        The universal and box-possibly classifiers carry no hypothesis and
        always decide, so the check spans the remaining four.
        """
        carrying = (
            self.possibly_box_robust,
            self.tolerance_box_robust,
            self.weak_tolerance_box_robust,
            self.box_tolerance_robust,
        )
        return all(v.status == HYPOTHESIS_NOT_MET for v in carrying)


def classify(ic: IntervalCirculant, box: Box) -> RobustnessReport:
    """Decide all six robustness questions for an interval circulant and a box."""
    if ic.n != box.n:
        raise DimensionMismatch(f"interval circulant size {ic.n} vs box size {box.n}")
    n = ic.n
    env = envelope_circulant(ic)
    env_ok = envelope_in_interval(ic)
    corners = [corner_vector(box, k) for k in range(1, n + 1)]
    corner_mats = [corner_matrix(ic, k) for k in range(n)]
    env_hypothesis = Verdict(
        HYPOTHESIS_NOT_MET, "envelope circulant is not a member of the interval"
    )

    if env_ok:
        possibly = _from_bool(all(in_attraction_cone(env, x) for x in corners))
    else:
        possibly = env_hypothesis

    universally = _from_bool(all(in_attraction_cone(mat, x) for mat in corner_mats for x in corners))

    systems = [attraction_system(mat) for mat in corner_mats]
    if box.is_closed:
        tolerance = Verdict(YES)
        for system in systems:
            verdict = _feasibility_verdict(feasible_in_box, system, box)
            if verdict.status == NO:
                tolerance = verdict
                break
            if verdict.status != YES:
                tolerance = verdict
    else:
        tolerance = Verdict(HYPOTHESIS_NOT_MET, "box has a non-closed interval")

    if env_ok:
        weak = _feasibility_verdict(feasible_in_box, attraction_system(env), box)
    else:
        weak = env_hypothesis

    box_possibly = _feasibility_verdict(simultaneous_feasible, systems, box)

    return RobustnessReport(
        possibly_box_robust=possibly,
        universally_box_robust=universally,
        tolerance_box_robust=tolerance,
        weak_tolerance_box_robust=weak,
        box_possibly_robust=box_possibly,
        # Equivalent to possibly under the envelope hypothesis, which possibly carries.
        box_tolerance_robust=possibly,
    )


# Valid implications among decided verdicts.  The pair (box_possibly ->
# tolerance) is the usual exists-forall to forall-exists weakening; the
# equivalence of box_tolerance with possibly holds under the envelope
# hypothesis and is how classify computes it.
_IMPLICATIONS = (
    ("universally_box_robust", "possibly_box_robust"),
    ("universally_box_robust", "tolerance_box_robust"),
    ("universally_box_robust", "box_possibly_robust"),
    ("universally_box_robust", "box_tolerance_robust"),
    ("possibly_box_robust", "weak_tolerance_box_robust"),
    ("tolerance_box_robust", "weak_tolerance_box_robust"),
    ("box_possibly_robust", "tolerance_box_robust"),
    ("box_possibly_robust", "weak_tolerance_box_robust"),
)


def implication_violations(report: RobustnessReport) -> list[str]:
    """Implication-lattice violations among decided statuses (empty when sound)."""
    d = report.as_dict()
    out = []
    for premise, conclusion in _IMPLICATIONS:
        p, c = d[premise], d[conclusion]
        if p.status == YES and c.status == NO:
            out.append(f"{premise} = yes but {conclusion} = no")
    p, c = d["box_tolerance_robust"], d["possibly_box_robust"]
    if p.decided and c.decided and p.status != c.status:
        out.append("box_tolerance_robust and possibly_box_robust disagree")
    return out
