"""The README's library sketch runs as written and gives the values its comments state."""

import ast
import re
from pathlib import Path

import pytest

from test_tolerances import tolerance_table

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_sketch():
    """Run the first ```python block of the README statement by statement.

    Returns the value of every bare expression, keyed by its source text,
    and the namespace the block leaves behind.
    """
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values, namespace


def test_readme_library_sketch():
    values, namespace = _run_sketch()
    assert values["pmax_mixed(rho, phi).p_max"] == pytest.approx(0.8, abs=1e-12)
    assert values["verify_branch_outputs(plan, rho, phi)"]
    assert values["enhancement_gate(rho, phi).verdict"] is True
    assert values["deterministic_gate(rho, phi).verdict"] is True
    # catalyst_gates gives both reports, with the verdicts of the two gates
    assert (namespace["enh"].verdict, namespace["det"].verdict) == (True, True)
    catalyst = values["search_catalyst(rho, phi, max_dim=2, grid_step=0.05).catalyst"]
    assert catalyst == pytest.approx((0.6, 0.4), abs=1e-12)
    rate = values["simulate(plan, rho, shots=10**6, seed=7).empirical_probability"]
    assert rate == pytest.approx(0.8, abs=5e-3)


def test_readme_lists_every_tolerance_with_its_value():
    text = README.read_text()
    table = tolerance_table()
    missing = [name for name, (_, literal) in table.items() if f"| `{name}` | {literal} |" not in text]
    assert missing == []
    # every tolerance name the README mentions is a table entry
    mentioned = set(re.findall(r"`(?:\w+\.)?([A-Z][A-Z0-9_]*_(?:TOL|FLOOR))`", text))
    assert mentioned - set(table) == set()
