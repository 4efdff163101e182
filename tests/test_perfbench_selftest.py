"""The benchmark gate's own self-test must pass against the current package."""
import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = ("tracing.py", "selftest.py", "gate.py", "run.py")


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _opfactor_names(tree: ast.AST) -> dict[str, str]:
    """The names a file binds to opfactor modules, anywhere in it, and the module of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "opfactor":
            names |= {a.asname or a.name: f"opfactor.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("opfactor."):
                    names[a.asname or "opfactor"] = a.name if a.asname else "opfactor"
    return names


def _dotted(node: ast.Attribute) -> list[str] | None:
    """['grid', 'Grid', 'x'] for grid.Grid.x, or None unless the chain starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("filename", HARNESS)
def test_harness_reads_only_names_the_package_has(filename):
    # the layer sweep and the traced runs are outside tier-1's runs, so a name
    # the package drops would otherwise break `run.py --trace 1` unseen
    with open(os.path.join(ROOT, "perfbench", filename)) as handle:
        tree = ast.parse(handle.read())
    bound = _opfactor_names(tree)
    read, missing = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opfactor."):
            chains = [[node.module, a.name] for a in node.names]
        elif isinstance(node, ast.Attribute) and (chain := _dotted(node)) and chain[0] in bound:
            chains = [chain]
        else:
            continue
        for head, *attrs in chains:
            value = importlib.import_module(bound.get(head, head))
            for depth, attr in enumerate(attrs, 1):
                if not hasattr(value, attr):
                    missing.append(".".join([head, *attrs[:depth]]))
                    break
                value = getattr(value, attr)
            read.add(".".join([head, *attrs]))
    assert not missing, f"perfbench/{filename} reads names the package lacks: {sorted(set(missing))}"
    assert read  # the walk finds the reads it checks
