"""README's "Quick tour" runs as written and gives the values its comments state."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def run_quick_tour() -> tuple[dict, list]:
    """Run the tour's code block; returns its namespace and the values of its bare expressions."""
    section = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_the_quick_tour_gives_the_values_it_states():
    tour, values = run_quick_tour()
    spectral, info = tour["spectral"], tour["info"]
    assert spectral.eigenvalue == Fraction(1)
    assert spectral.components == ((1, 3), (2, 4))
    assert spectral.period == 2
    assert (info.transient, info.period) == (3, 2)
    assert values == [True]  # in_attraction_cone(c, x)
    assert len(tour["reduced"].equations) <= len(tour["system"].equations)
    assert len(tour["report"].as_dict()) == 6
