"""The package's public surface: the names it exports, and no dead imports.

A name joins or leaves ``fairnoma.__all__`` only by editing the list below,
so every change of the public surface shows in a diff of this file.

The rule for the list: a public name stays if the CLI, a figure or the
benchmark calls it, or if it is the only statement of a paper result that a
test pins. A name that restates another's result, such as one field of a
point object that already holds the whole set, goes.
"""

import ast
from pathlib import Path

import pytest

import fairnoma

SRC = Path(fairnoma.__file__).parent

PUBLIC_NAMES = [
    "AllocationVector",
    "ChannelPair",
    "ChannelSet",
    "DomainError",
    "ErgodicCurvePoint",
    "EULER_GAMMA",
    "FairRegion",
    "GridPoint",
    "OutagePoint",
    "QuadratureError",
    "SimConfig",
    "SimResult",
    "SystemParams",
    "allocation_bound",
    "ergodic_curve_point",
    "ergodic_oma",
    "exp_integral_e1_scaled",
    "expected_gain_ainf_approx",
    "expected_gain_asup",
    "fair_region",
    "full_alloc_a",
    "high_snr_capacities",
    "high_snr_ergodic_approx",
    "min_alloc_b",
    "minmax_joint_cdf",
    "minmax_joint_pdf",
    "noma_capacity_k",
    "noma_capacity_strong",
    "noma_capacity_weak",
    "oma_capacity",
    "oma_capacity_k",
    "outage_point",
    "simulate",
    "sum_rate",
    "verify_fairness",
    "__version__",
]


def test_public_names_are_pinned_and_resolve():
    assert fairnoma.__all__ == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(fairnoma, name)]
    assert not missing, missing


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports but never reads, as (line, name)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


# __init__ imports to re-export, so it is the one module exempt
@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py") if path.name != "__init__.py"))
def test_module_uses_every_import(module):
    tree = ast.parse((SRC / module).read_text("utf-8"))
    assert not _unused_imports(tree)
