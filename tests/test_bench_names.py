"""Every package attribute the benchmark's driver and checks read exists.

`bench/run.py` and `bench/checks.py` call into the package through module
names (`cli.run_encode`, `spae.reconstruction_loss`, ...). They are read
here with `ast`, not imported, so a renamed or deleted name shows up as a
failed test instead of a benchmark run that dies half-way.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("cli", "config", "engine", "hierarchy", "spae", "clf")


def _reads(path: Path):
    """(line, package module, attribute) of every `name.attr` read through
    a module name in MODULES and of every `from meshact.x import name`."""
    tree = ast.parse(path.read_text(), str(path))
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "meshact":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"meshact.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("meshact."):
            reads += [(node.lineno, node.module, alias.name)
                      for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in MODULES:
            assert node.value.id in bound, \
                f"{path.name}:{node.lineno}: {node.value.id} is not meshact's"
            reads.append((node.lineno, bound[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("name", ["run.py", "checks.py"])
def test_bench_reads_only_names_the_package_has(name):
    reads = _reads(BENCH / name)
    assert reads, f"{name} reads no package attribute; is the scan stale?"
    missing = [f"{name}:{line}: {module}.{attr}"
               for line, module, attr in reads
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, "\n".join(missing)
