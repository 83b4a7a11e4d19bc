"""The README stays in step with the API.

The "Minimal library use" example trains for 18 epochs, so it is not run
here: the block is compiled, every attribute it reads from a mixcast
module must exist, and every keyword argument it passes must be a
parameter of the callee. The defaults the README's knob list states for
`evaluate` must be the code's.
"""

import ast
import inspect
import re
from pathlib import Path

from mixcast import cli, data, metrics, model, training

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {"data": data, "metrics": metrics, "model": model, "training": training}


def example_block() -> str:
    text = README.read_text()
    match = re.search(r"Minimal library use:\s*```python\n(.*?)```", text, re.S)
    assert match, "README has no 'Minimal library use' python block"
    return match.group(1)


def module_attribute(node):
    """(module, name) for `<module>.<name>` on a mixcast module, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES):
        return MODULES[node.value.id], node.attr
    return None


def test_example_compiles_and_uses_existing_names():
    source = example_block()
    compile(source, str(README), "exec")
    tree = ast.parse(source)
    read = [ref for node in ast.walk(tree) if (ref := module_attribute(node))]
    assert read, "the example reads nothing from the mixcast modules"
    for module, name in read:
        assert hasattr(module, name), f"{module.__name__}.{name} does not exist"

    calls = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not (ref := module_attribute(node.func)):
            continue
        params = inspect.signature(getattr(*ref)).parameters
        for kw in node.keywords:
            assert kw.arg in params, f"{ref[0].__name__}.{ref[1]} takes no {kw.arg!r}"
            calls += 1
    assert calls > 0, "the example passes no keyword arguments to check"


def test_stated_evaluate_defaults_are_the_codes():
    text = README.read_text()
    points = re.search(r"^- `--grid-points (\d+)`", text, re.M)
    assert points, "README states no --grid-points default"
    assert int(points.group(1)) == metrics.ScoringConfig.interval_points
    levels = re.search(r"^- `--levels (\S+)`", text, re.M)
    assert levels, "README states no --levels default"
    stated = cli.parse_levels(levels.group(1), metrics.ScoringConfig.interval_points)
    assert stated == tuple(float(v) for v in metrics.DEFAULT_LEVELS)
