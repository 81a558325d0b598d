"""Independent checks of CLI reports, written without calling into maxcirc.

Each check recomputes a report's decision fields from the problem itself with
naive exact integer arithmetic: entries are scaled by a common denominator,
orbits and row powers are iterated directly, and a state is compared with an
earlier one by its primitive direction (the state divided by the gcd of its
entries) together with the accumulated scale between the two.  A check
returns None when the report agrees and a short reason when it does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

YES, NO = "yes", "no"
UNKNOWN = "unknown_strict_boundary"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
STEP_LIMIT = 20000

# Valid implications between decided verdicts, read off the quantifiers:
# "for every matrix" implies "for some matrix", and "some box point for every
# matrix" implies "for every matrix some box point".
IMPLICATIONS = (
    ("universally_box_robust", "possibly_box_robust"),
    ("universally_box_robust", "tolerance_box_robust"),
    ("universally_box_robust", "box_possibly_robust"),
    ("universally_box_robust", "box_tolerance_robust"),
    ("possibly_box_robust", "weak_tolerance_box_robust"),
    ("tolerance_box_robust", "weak_tolerance_box_robust"),
    ("box_possibly_robust", "tolerance_box_robust"),
    ("box_possibly_robust", "weak_tolerance_box_robust"),
)


class CheckError(Exception):
    """The checker itself cannot reach a decision (treated as a failed check)."""


def _scale(values: list[Fraction]) -> tuple[list[int], int]:
    """Integers and the common denominator d with value = integer / d."""
    d = math.lcm(*(v.denominator for v in values))
    return [int(v * d) for v in values], d


def _primitive(raw: list[int]) -> tuple[tuple[int, ...], int]:
    g = math.gcd(*raw)
    if g == 0:
        return tuple(raw), 0
    return tuple(v // g for v in raw), g


def first_repeat(step, first: list[int]) -> tuple[int, int, int]:
    """Iterate ``step`` from ``first`` until a direction repeats.

    Returns (t1, t2, ratio): state t2 equals ``ratio`` times state t1, with
    states numbered from 1 for ``first``.  A state that reaches zero repeats
    at once with ratio 0.
    """
    seen: dict[tuple[int, ...], int] = {}
    logs = [1]  # logs[t - 1] = scale of state t relative to state 1
    state, _ = _primitive(first)
    scale = 1
    for t in range(1, STEP_LIMIT + 1):
        if not any(state):
            return t, t + 1, 0
        if state in seen:
            t1 = seen[state]
            return t1, t, scale // logs[t1 - 1]
        seen[state] = t
        state, g = _primitive(step(state))
        scale *= g
        logs.append(scale)
    raise CheckError(f"no repeat within {STEP_LIMIT} steps")


def _mat_vec(rows: list[list[int]], x) -> list[int]:
    return [max(a * v for a, v in zip(row, x)) for row in rows]


def _circulant_rows(row: list[int]) -> list[list[int]]:
    n = len(row)
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def orbit_member(rows: list[list[int]], lam_pair: tuple[int, int] | None, x: list[int]) -> tuple[bool, int]:
    """(member, eventual period) of the normalized orbit of x, by simulation.

    ``rows`` is an integer matrix and ``lam_pair`` its greatest cycle mean as
    an integer (weight, length) pair, so lambda = weight ** (1 / length); it
    is None for a matrix without cycles.  The orbit is followed from A x; the
    vector is a member of the attraction cone exactly when the normalized
    orbit settles with period 1 (or reaches zero).
    """
    if not any(v for row in rows for v in row):
        return True, 1
    t1, t2, ratio = first_repeat(lambda s: _mat_vec(rows, s), _mat_vec(rows, x))
    period = t2 - t1
    if ratio == 0:
        return True, period
    if lam_pair is None or ratio ** lam_pair[1] != lam_pair[0] ** period:
        raise CheckError("orbit repeats at a growth rate other than the eigenvalue")
    return period == 1, period


def _simple_cycles(n: int, succ: list[list[int]]):
    """Simple cycles as node lists starting at their smallest node."""
    def search(start, v, path, on_path):
        for w in succ[v]:
            if w == start:
                yield list(path)
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(w)
                yield from search(start, w, path, on_path)
                path.pop()
                on_path.discard(w)

    for s in range(n):
        yield from search(s, s, [s], {s})


def cycle_mean_pair(rows: list[list[int]]) -> tuple[int, int] | None:
    """Greatest geometric cycle mean as (weight, length), by enumerating cycles."""
    n = len(rows)
    succ = [[j for j in range(n) if rows[i][j] > 0] for i in range(n)]
    best = None
    for cycle in _simple_cycles(n, succ):
        w = math.prod(rows[u][cycle[(k + 1) % len(cycle)]] for k, u in enumerate(cycle))
        length = len(cycle)
        if best is None or w ** best[1] > best[0] ** length:
            best = (w, length)
    return best


def row_power_scan(row: list[Fraction]) -> tuple[Fraction, int, int]:
    """(lambda, transient, period) of a nonzero circulant from its row powers.

    Row t is the defining row of A^t; the first repeat of normalized rows at
    (t1, t2) gives transient t1 and period t2 - t1, and the growth over one
    period gives lambda ** period.
    """
    ints, d = _scale(list(row))
    n = len(ints)

    def step(r):
        return [max(r[i] * ints[(k - i) % n] for i in range(n)) for k in range(n)]

    t1, t2, ratio = first_repeat(step, ints)
    period = t2 - t1
    root = _int_root(ratio, period)
    if root is None:
        raise CheckError("row powers grow at an irrational rate")
    return Fraction(root, d), t1, period


def _int_root(value: int, k: int) -> int | None:
    """The integer r >= 0 with r ** k == value, or None if there is none."""
    lo, hi = 0, 1
    while hi**k < value:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**k < value else (lo, mid)
    return lo if lo**k == value else None


def irrational_eigenvalue(matrix: list[list]) -> bool:
    """Whether the greatest cycle mean of a general matrix is irrational.

    With entries scaled to integers over d, a cycle of weight w and length l
    has mean w ** (1 / l) / d, which is rational exactly when w is a perfect
    l-th power.
    """
    n = len(matrix)
    ints, _ = _scale([Fraction(v) for row in matrix for v in row])
    best = cycle_mean_pair([ints[i * n : (i + 1) * n] for i in range(n)])
    return best is not None and _int_root(*best) is None


# --- per-kind report checks ---------------------------------------------------


def _closure(item: dict) -> tuple[Fraction, Fraction, str]:
    return Fraction(item["lower"]), Fraction(item["upper"]), item.get("brackets", "[]")


def _contains(interval: tuple[Fraction, Fraction, str], v: Fraction) -> bool:
    lo, hi, brackets = interval
    above = lo <= v if brackets[0] == "[" else lo < v
    below = v <= hi if brackets[1] == "]" else v < hi
    return above and below


def _corner_vectors(problem: dict) -> list[list[Fraction]]:
    box = [_closure(item) for item in problem["box"]]
    return [[hi if i == k else lo for i, (lo, hi, _) in enumerate(box)] for k in range(len(box))]


def universally_robust(problem: dict) -> bool:
    """Every corner matrix absorbs every corner vector of the box."""
    ic = [_closure(item) for item in problem["interval_circulant"]]
    corner_rows = [[hi if t == k else lo for t, (lo, hi, _) in enumerate(ic)] for k in range(len(ic))]
    corner_vectors = _corner_vectors(problem)
    return all(member({"circulant": row}, x)[0] for row in corner_rows if any(row) for x in corner_vectors)


def expected_classify(problem: dict) -> dict:
    """Verdicts and flags the checker can derive for a robustness problem.

    Returns the decided statuses of the classifiers that orbit simulation
    settles (possibly, universally, box_tolerance), the statuses forced by
    unmet hypotheses, the envelope, and the expected exit code.
    """
    ic = [_closure(item) for item in problem["interval_circulant"]]
    corner_vectors = _corner_vectors(problem)
    base = max(lo for lo, _, _ in ic)
    envelope = [min(base, hi) for _, hi, _ in ic]
    envelope_in = all(_contains(iv, v) for iv, v in zip(ic, envelope))
    box_closed = all(item.get("brackets", "[]") == "[]" for item in problem["box"])

    statuses = {"universally_box_robust": YES if universally_robust(problem) else NO}
    if envelope_in:
        possibly = all(member({"circulant": envelope}, x)[0] for x in corner_vectors)
        statuses["possibly_box_robust"] = statuses["box_tolerance_robust"] = YES if possibly else NO
    else:
        for name in ("possibly_box_robust", "weak_tolerance_box_robust", "box_tolerance_robust"):
            statuses[name] = HYPOTHESIS_NOT_MET
    if not box_closed:
        statuses["tolerance_box_robust"] = HYPOTHESIS_NOT_MET
    all_unmet = not envelope_in and not box_closed
    return {
        "statuses": statuses,
        "envelope": envelope,
        "envelope_in": envelope_in,
        "exit": 3 if all_unmet else 0,
    }


def check_classify(problem: dict, results: dict, exit_code: int) -> str | None:
    expected = expected_classify(problem)
    if exit_code != expected["exit"]:
        return f"exit {exit_code}, expected {expected['exit']}"
    for name, status in expected["statuses"].items():
        got = results[name]["status"]
        if got != status:
            return f"{name} = {got}, expected {status}"
    for name in ("tolerance_box_robust", "weak_tolerance_box_robust", "box_possibly_robust"):
        if name not in expected["statuses"] and results[name]["status"] not in (YES, NO, UNKNOWN):
            return f"{name} = {results[name]['status']} although its hypothesis holds"
    for premise, conclusion in IMPLICATIONS:
        if results[premise]["status"] == YES and results[conclusion]["status"] == NO:
            return f"{premise} = yes but {conclusion} = no"
    if [Fraction(v) for v in results["envelope_circulant"]] != expected["envelope"]:
        return "envelope circulant differs"
    if results["envelope_in_interval"] != expected["envelope_in"]:
        return "envelope membership differs"
    return None


def member(operand: dict, x: list[Fraction]) -> tuple[bool, int]:
    """(member, eventual period) of x for a {"circulant": ...} or {"matrix": ...} operand.

    The greatest cycle mean of a circulant is its largest entry: offset t
    closes a cycle of constant weight a_t, and no cycle mean exceeds the
    largest entry.  A general matrix gets it by enumerating its cycles.
    """
    if "circulant" in operand:
        ints, _ = _scale([Fraction(v) for v in operand["circulant"]])
        rows = _circulant_rows(ints)
        lam_pair = (max(ints), 1) if any(ints) else None
    else:
        n = len(operand["matrix"])
        ints, _ = _scale([Fraction(v) for row in operand["matrix"] for v in row])
        rows = [ints[i * n : (i + 1) * n] for i in range(n)]
        lam_pair = cycle_mean_pair(rows)
    xs, _ = _scale(x)
    return orbit_member(rows, lam_pair, xs)


def check_circulant_analysis(problem: dict, results: dict) -> str | None:
    row = [Fraction(v) for v in problem["circulant"]]
    if not any(row):
        if results["zero"] and Fraction(results["lambda"]) == 0:
            return None
        return "zero circulant not reported as zero"
    lam, transient, period = row_power_scan(row)
    got = (Fraction(results["lambda"]), results["transient"], results["period"])
    if got != (lam, transient, period):
        return f"(lambda, transient, period) = {got}, row powers give {(lam, transient, period)}"
    return None


def check_attraction(problem: dict, results: dict) -> str | None:
    x = [Fraction(v) for v in problem["vector"]]
    expected, period = member(problem, x)
    if results["member"] != expected:
        return f"member = {results['member']}, orbit simulation gives {expected}"
    if results["orbit_period"] != period:
        return f"orbit_period = {results['orbit_period']}, orbit simulation gives {period}"
    return None


def dominated(a: dict, b: dict) -> bool:
    """Circulants a <= b entrywise with equal largest entry (inclusion then holds)."""
    if "circulant" not in a or "circulant" not in b:
        return False
    ra = [Fraction(v) for v in a["circulant"]]
    rb = [Fraction(v) for v in b["circulant"]]
    return len(ra) == len(rb) and all(u <= v for u, v in zip(ra, rb)) and max(ra) == max(rb)


def check_inclusion(problem: dict, results: dict) -> str | None:
    if results["verdict"] == "consistent":
        return None
    if dominated(problem["a"], problem["b"]):
        return "counterexample reported for a dominated pair"
    x = [Fraction(v) for v in results["counterexample"]]
    if not member(problem["a"], x)[0]:
        return "counterexample is outside the A-cone"
    if member(problem["b"], x)[0]:
        return "counterexample is inside the B-cone"
    return None


def check_report(problem: dict, exit_code: int, report: dict | None) -> str | None:
    """None when the CLI outcome agrees with the independent check, else a reason."""
    kind = problem["kind"]
    if kind == "robustness_classify":
        if exit_code not in (0, 3) or report is None:
            return f"exit {exit_code}"
        return check_classify(problem, report["results"], exit_code)
    if exit_code != 0 or report is None:
        return f"exit {exit_code}"
    results = report["results"]
    if kind == "circulant_analysis":
        return check_circulant_analysis(problem, results)
    if kind == "attraction_check":
        return check_attraction(problem, results)
    if kind == "inclusion_check":
        return check_inclusion(problem, results)
    raise ValueError(f"unknown problem kind {kind!r}")
