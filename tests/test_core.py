import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcirc import (
    Circulant,
    DimensionMismatch,
    MaxMatrix,
    MaxVector,
    as_scalar,
    exact_kth_root,
    expand,
    mat_mul,
    mat_power,
    mat_vec,
    orbit,
)
from maxcirc.core import kleene_sum

import bruteforce as bf

A31 = expand(Circulant.of([0, 0, 1, "1/2"]))  # running 4x4 example


def random_matrix(rng, n, pool):
    return MaxMatrix.of([[rng.choice(pool) for _ in range(n)] for _ in range(n)])


def test_as_scalar_accepts_exact_forms():
    assert as_scalar("3/4") == F(3, 4)
    assert as_scalar(2) == F(2)
    assert as_scalar(F(1, 3)) == F(1, 3)


def test_as_scalar_rejects_floats_and_negatives():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(ValueError):
        as_scalar(-1)
    with pytest.raises(ValueError):
        as_scalar("-2/3")


@pytest.mark.parametrize("text", ["1e3000000", "1E2", "2.5e-1", "1e0"])
def test_as_scalar_rejects_exponent_notation(text):
    # Fraction would compute the power of ten in full before any bound applies.
    with pytest.raises(ValueError, match="exponent notation is not accepted"):
        as_scalar(text)
    with pytest.raises(ValueError, match="exponent notation is not accepted"):
        MaxVector.of(["1", text])


def reference_as_scalar(text):
    """The interpreter's own ``Fraction`` grammar with the exponent and sign rules on top."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted; write an integer or 'p/q': {text!r}")
    q = F(text)
    if q < 0:
        raise ValueError(f"negative value not allowed in the max-times semiring: {text!r}")
    return q


def outcome(coerce, text):
    try:
        q = coerce(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(q), q


# "٣" and "٤" are Arabic-Indic digits (Unicode Nd, matched by Fraction's \d);
# "²" is a digit to str.isdigit but not a decimal one.
SCALAR_ALPHABET = "0123456789٣٤²/_ +-.e"
DIGIT_RUNS = st.text(alphabet="0123456789٣٤", min_size=1, max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(alphabet=SCALAR_ALPHABET, max_size=12),
        DIGIT_RUNS,
        st.tuples(DIGIT_RUNS, DIGIT_RUNS).map("/".join),
    )
)
def test_as_scalar_agrees_with_fraction_on_strings(text):
    assert outcome(as_scalar, text) == outcome(reference_as_scalar, text)


@pytest.mark.parametrize("form", ["{7}", "{0}", "1/{7}", "{7}/3", "{7}/0", "+{7}", " {7}/2 "])
@pytest.mark.parametrize("past_limit", [-1, 0, 1])
def test_as_scalar_agrees_with_fraction_around_the_digit_limit(form, past_limit):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no digit limit is set")
    k = limit + past_limit
    text = form.replace("{7}", "7" * k).replace("{0}", "0" * k)
    assert outcome(as_scalar, text) == outcome(reference_as_scalar, text)


def test_unit_rejects_a_position_outside_the_vector():
    assert MaxVector.unit(3, 2) == MaxVector.of([0, 0, 1])
    for i in (3, 5, -1):
        with pytest.raises(ValueError, match=f"unit position {i} is outside 0..2"):
            MaxVector.unit(3, i)


def test_mat_mul_identity():
    n = A31.n
    assert mat_mul(MaxMatrix.identity(n), A31) == A31
    assert mat_mul(A31, MaxMatrix.identity(n)) == A31


def test_mat_mul_square_of_running_example():
    sq = mat_mul(A31, A31)
    assert sq.rows[0] == (F(1), F(1, 2), F(1, 4), F(0))
    assert sq == expand(Circulant.of([1, "1/2", "1/4", 0]))


def test_mat_mul_shift_composition():
    p = expand(Circulant.of([0, 1, 0]))
    assert mat_mul(p, p) == expand(Circulant.of([0, 0, 1]))


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(MaxMatrix.identity(2), MaxMatrix.identity(3))


def test_mat_power_matches_displayed_powers():
    assert mat_power(A31, 2).rows[0] == (F(1), F(1, 2), F(1, 4), F(0))
    assert mat_power(A31, 16) == expand(Circulant.of([1, "1/2", "1/4", "1/8"]))
    assert mat_power(A31, 1) == A31
    assert mat_power(A31, 0) == MaxMatrix.identity(4)


def test_mat_power_equals_successive_products():
    rng = random.Random(11)
    pool = [0, 0, F(1, 3), F(1, 2), 1, 2]
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, pool)
        t = rng.randint(1, 9)
        chain = bf.power_chain(a.rows, t)
        assert mat_power(a, t).rows == chain[t]


def test_mat_vec_examples():
    x = MaxVector.of(["1/2", 1, "1/4", 1])
    assert mat_vec(A31, x) == MaxVector.of(["1/2", 1, "1/2", 1])
    assert mat_vec(MaxMatrix.identity(4), x) == x
    assert mat_vec(MaxMatrix.zeros(4), x) == MaxVector.zeros(4)
    with pytest.raises(DimensionMismatch):
        mat_vec(A31, MaxVector.of([1, 2]))


def test_orbit_reaches_fixed_point():
    x = MaxVector.of(["1/2", 1, "1/4", 1])
    fixed = MaxVector.of(["1/2", 1, "1/2", 1])
    assert orbit(A31, x, 2) == (x, fixed, fixed)


def test_orbit_of_identity_repeats():
    x = MaxVector.of([1, 2, 3])
    assert orbit(MaxMatrix.identity(3), x, 4) == (x,) * 5


def test_orbit_of_six_cycle_returns_after_six_steps():
    p = expand(Circulant.of([0, 1, 0, 0, 0, 0]))
    e1 = MaxVector.unit(6, 0)
    seq = orbit(p, e1, 6)
    assert seq[6] == e1
    assert all(seq[t] != e1 for t in range(1, 6))


def test_semiring_laws_on_random_matrices():
    rng = random.Random(5)
    pool = [0, F(1, 2), 1, F(3, 2), 3]
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, pool)
        b = random_matrix(rng, n, pool)
        c = random_matrix(rng, n, pool)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
        # entrywise max distributes with the product on both sides
        assert mat_mul(a.entrywise_max(b), c) == mat_mul(a, c).entrywise_max(mat_mul(b, c))
        assert mat_mul(c, a.entrywise_max(b)) == mat_mul(c, a).entrywise_max(mat_mul(c, b))


def test_power_addition_law():
    rng = random.Random(6)
    pool = [0, F(1, 4), F(1, 2), 1, 2]
    for _ in range(15):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, pool)
        s, t = rng.randint(1, 8), rng.randint(1, 8)
        assert mat_power(a, s + t) == mat_mul(mat_power(a, s), mat_power(a, t))


def test_power_monotonicity():
    rng = random.Random(7)
    pool = [0, F(1, 3), F(1, 2), 1, 2]
    for _ in range(15):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, pool)
        b = MaxMatrix(
            tuple(
                tuple(v * rng.choice([1, 1, 2]) for v in row) for row in a.rows
            )
        )
        t = rng.randint(1, 6)
        assert a.leq(b)
        assert mat_power(a, t).leq(mat_power(b, t))


def test_exact_kth_root():
    assert exact_kth_root(F(1, 4), 2) == F(1, 2)
    assert exact_kth_root(F(8, 27), 3) == F(2, 3)
    assert exact_kth_root(F(2), 2) is None
    assert exact_kth_root(F(0), 5) == 0


# --- integer kernel against the Fraction oracles ------------------------------

DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True)
KERNEL_ENTRIES = [F(0), F(1, 3), F(2, 7), F(3, 4), F(1), F(2)]


@st.composite
def kernel_matrices(draw, n=None):
    """n-by-n matrices over KERNEL_ENTRIES, some with all-zero rows."""
    if n is None:
        n = draw(st.integers(1, 7))
    rows = [draw(st.lists(st.sampled_from(KERNEL_ENTRIES), min_size=n, max_size=n)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        rows[i] = [F(0)] * n
    return MaxMatrix.of(rows)


def naive_kleene_sum(rows):
    """I + A + ... + A^(n-1) from successive Fraction products."""
    n = len(rows)
    acc = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    for p in bf.power_chain(rows, n - 1)[1:n]:  # no A^1 term when n = 1
        acc = tuple(tuple(map(max, r, s)) for r, s in zip(acc, p))
    return acc


@DIFFERENTIAL
@given(st.data())
def test_mat_mul_matches_fraction_oracle(data):
    a = data.draw(kernel_matrices())
    b = data.draw(kernel_matrices(n=a.n))
    assert mat_mul(a, b).rows == bf.mul(a.rows, b.rows)


@DIFFERENTIAL
@given(kernel_matrices(), st.integers(0, 40))
def test_mat_power_matches_fraction_oracle(a, t):
    expected = MaxMatrix.identity(a.n).rows if t == 0 else bf.power_chain(a.rows, t)[t]
    assert mat_power(a, t).rows == expected


@DIFFERENTIAL
@given(kernel_matrices())
def test_kleene_sum_matches_naive_sum(a):
    assert kleene_sum(a).rows == naive_kleene_sum(a.rows)


@pytest.mark.parametrize(
    "a",
    # On the second, a shift whose path to the last column needs all n-1 steps.
    [A31, expand(Circulant.of(["3/4", "2/7", 0, 0, 0, 0]))],
    ids=["A31", "mixed_denominators"],
)
def test_kleene_sum_is_power_of_identity_plus_a(a):
    n = a.n
    expected = naive_kleene_sum(a.rows)
    assert kleene_sum(a).rows == expected
    assert mat_power(a.entrywise_max(MaxMatrix.identity(n)), n - 1).rows == expected
