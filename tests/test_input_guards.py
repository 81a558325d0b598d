from fractions import Fraction as F

import pytest

from maxcirc import (
    Box,
    Circulant,
    DimensionMismatch,
    IntervalCirculant,
    MaxMatrix,
    MaxVector,
    TwoSidedSystem,
    check_attraction_inclusion,
    classify,
    decompose_in_box,
    exact_kth_root,
    feasible_in_box,
    greatest_solution_leq,
    in_attraction_cone,
    max_form,
    orbit,
    satisfies,
    simultaneous_feasible,
    solvable_congruence,
)
from maxcirc.core import power_by_squaring

V2, V3 = MaxVector.of([1, 1]), MaxVector.of([1, 1, 1])
M2, M3 = MaxMatrix.identity(2), MaxMatrix.identity(3)
C2, C3 = Circulant.of([0, 1]), Circulant.of([0, 1, 0])
S2, S3 = TwoSidedSystem(2, ()), TwoSidedSystem(3, ())
B2, B3 = Box.of([(0, 1)] * 2), Box.of([(0, 1)] * 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: in_attraction_cone(C3, V2), DimensionMismatch, "vector size 2 vs circulant size 3"),
        (lambda: check_attraction_inclusion(C3, C2), DimensionMismatch, "matrix sizes differ: 3 vs 2"),
        (lambda: V3.max_with(V2), DimensionMismatch, "vector sizes differ: 3 vs 2"),
        (lambda: V3.leq(V2), DimensionMismatch, "vector sizes differ: 3 vs 2"),
        (lambda: M3.entrywise_max(M2), DimensionMismatch, "matrix sizes differ: 3 vs 2"),
        (lambda: M3.leq(M2), DimensionMismatch, "matrix sizes differ: 3 vs 2"),
        (lambda: decompose_in_box(V2, B3), DimensionMismatch, "vector size 2 vs box size 3"),
        (
            lambda: classify(IntervalCirculant.of([(0, 1)] * 3), B2),
            DimensionMismatch,
            "interval circulant size 3 vs box size 2",
        ),
        (lambda: satisfies(S3, V2), DimensionMismatch, "vector size 2 vs system width 3"),
        (lambda: greatest_solution_leq(S3, V2), DimensionMismatch, "upper size 2 vs system width 3"),
        (lambda: feasible_in_box(S3, B2), DimensionMismatch, "box size 2 vs system width 3"),
        (
            lambda: simultaneous_feasible([S3, S2], B3),
            DimensionMismatch,
            "systems are over different numbers of unknowns",
        ),
        (lambda: power_by_squaring(2, -1, int.__mul__, 1), ValueError, "exponent must be nonnegative"),
        (lambda: orbit(M2, V2, -1), ValueError, "horizon must be nonnegative"),
        (lambda: exact_kth_root(F(4), 0), ValueError, "root index must be positive"),
        (lambda: exact_kth_root(F(-4), 2), ValueError, "value must be nonnegative"),
        (lambda: solvable_congruence([1], 0, 0), ValueError, "modulus must be positive"),
        (lambda: solvable_congruence([0], 3, 0), ValueError, "coefficients must be positive"),
        (lambda: max_form(2, [(3, 1)]), ValueError, "variable index 3 out of range 1..2"),
    ],
)
def test_an_input_guard_raises_its_error_with_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
