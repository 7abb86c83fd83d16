"""A census of the kernel's surface: nothing only its own tests use.

``repro.sim`` has shed three batches of primitives that nothing but
``tests/sim`` imported (conditions, stores, the failure / trigger API).
These tests keep a fourth from growing: an export or an ``Environment``
method needs a user outside the package and outside this directory.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.sim
from repro.sim.core import Environment

REPO = Path(__file__).resolve().parents[2]
SIM = REPO / "src" / "repro" / "sim"

#: exports a caller holds without importing them, and the ``Environment``
#: method it gets them from: the error ``run`` raises on a misuse
THROUGH_ENVIRONMENT = {"SimulationError": "run"}


def modules(*roots: str, skip: tuple[Path, ...]):
    """The parsed modules under ``roots``, leaving out the ``skip`` directories."""
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            if not any(directory in path.parents for directory in skip):
                yield ast.parse(path.read_text())


def imported_from_sim(tree: ast.AST) -> set[str]:
    """Names a module imports from ``repro.sim`` or one of its modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            absolute = node.level == 0 and parts[:2] == ["repro", "sim"]
            relative = node.level > 0 and parts[0] == "sim"
            if absolute or relative:
                names.update(alias.name for alias in node.names)
    return names


def called_on_env(tree: ast.AST) -> set[str]:
    """Attribute names read off a receiver called ``env`` (``env.x``, ``a.env.x``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            receiver = node.value
            if (isinstance(receiver, ast.Name) and receiver.id == "env") or (
                isinstance(receiver, ast.Attribute) and receiver.attr == "env"
            ):
                names.add(node.attr)
    return names


def test_every_export_has_a_user_outside_the_package():
    imported, on_env = set(), set()
    for tree in modules("src/repro", "benchmarks", skip=(SIM,)):
        imported |= imported_from_sim(tree)
        on_env |= called_on_env(tree)
    unused = [
        name
        for name in repro.sim.__all__
        if name not in imported and THROUGH_ENVIRONMENT.get(name) not in on_env
    ]
    assert unused == [], f"exported by repro.sim, imported only by its tests: {unused}"


def test_every_environment_method_has_a_caller_outside_its_tests():
    on_env = set()
    for tree in modules(
        "src/repro", "benchmarks", "examples", "tests",
        skip=(SIM, REPO / "tests" / "sim"),
    ):
        on_env |= called_on_env(tree)
    public = [name for name in vars(Environment) if not name.startswith("_")]
    uncalled = [name for name in public if name not in on_env]
    assert uncalled == [], f"Environment methods only tests/sim calls: {uncalled}"
