"""A census of ``src/``: no function, method or class that only tests reach.

A definition that nothing but its own unit tests uses is a second copy of
something, a primitive kept "in case", or a reference implementation in
the wrong tree.  This test parses ``src/repro``, ``benchmarks/`` and
``examples/`` with ``ast`` and requires every module-level function and
class, and every method of a module-level class, to be *reached*: its name
is read (an ``ast.Name`` or the attribute of an ``ast.Attribute``)
somewhere in those trees outside its own body.  Imports (re-exports in an
``__init__.py`` included) and ``__all__`` strings are not reads.

Reads inside an unreached definition do not count either, so the census
runs to a fixed point: a chain that only a dead entry point walks (a
reference routine and the helpers only it calls) is flagged whole.
Matching is by name, not by binding, so it errs toward "reached": a
method shares its fate with every other definition of the same name.

A definition only a test reaches moves to ``tests/`` (as the oracles in
``tests/sched/oracle.py``, ``tests/overlay/oracle.py`` and
``tests/can/oracle.py`` did) or goes; one kept for a reason goes on
``ALLOWLIST`` with that reason.

The churn path gets two more checks: its modules reach a protocol, an
overlay or a host through public names only, and one definition draws a
background churn gap.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
READERS = (SRC, REPO / "benchmarks", REPO / "examples")

_RANGE_QUERY = (
    "ROADMAP 4(b) stands: at 1 000 nodes Chord's matchmaking fallback finds "
    "a fifth of the capable nodes (EXPERIMENTS.md, 'Substrates: does the "
    "matchmaking fallback find what is there?'), and a range-query "
    "capable_search is what would replace it"
)


#: (module path relative to ``src/repro``, qualified name) -> why it stays
#: although no run reaches it
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("chord/range_query.py", "KeyInterval"): _RANGE_QUERY,
    ("chord/range_query.py", "RangeQueryResult"): _RANGE_QUERY,
    ("chord/range_query.py", "box_key_intervals"): _RANGE_QUERY,
    ("chord/range_query.py", "range_query"): _RANGE_QUERY,
}


class Definition(NamedTuple):
    path: Path
    qualname: str
    name: str
    first: int
    last: int


def _definitions(path: Path, tree: ast.Module) -> List[Definition]:
    """Module-level functions and classes, and the methods of those classes."""
    out = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        out.append(Definition(path, node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    out.append(
                        Definition(
                            path,
                            f"{node.name}.{member.name}",
                            member.name,
                            member.lineno,
                            member.end_lineno,
                        )
                    )
    return out


def _reads(tree: ast.Module) -> List[Tuple[str, int]]:
    """(name, line) of every name or attribute read in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


@functools.cache
def census() -> Tuple[Definition, ...]:
    """The definitions under ``src/repro`` that no run reaches."""
    definitions: List[Definition] = []
    reads: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            if SRC in path.parents:
                definitions += _definitions(path, tree)
            for name, line in _reads(tree):
                reads[name].append((path, line))

    def inside(path: Path, line: int, span: Definition) -> bool:
        return path == span.path and span.first <= line <= span.last

    dead: Set[Definition] = set()
    while True:
        now_dead = {
            d
            for d in definitions
            if not any(
                not inside(path, line, d)
                and not any(inside(path, line, gone) for gone in dead)
                for path, line in reads.get(d.name, ())
            )
        }
        if now_dead == dead:
            return tuple(sorted(dead, key=lambda d: (str(d.path), d.first)))
        dead = now_dead


def _key(d: Definition) -> Tuple[str, str]:
    return str(d.path.relative_to(SRC)), d.qualname


def test_every_definition_is_reached_outside_tests():
    unreached = [
        f"{path}: {qualname}"
        for path, qualname in map(_key, census())
        if (path, qualname) not in ALLOWLIST
    ]
    assert unreached == [], (
        "defined in src/ but reached only by tests (move to tests/, delete, "
        f"or allowlist with a reason): {unreached}"
    )


def test_allowlist_entries_are_needed_and_give_a_reason():
    flagged = {_key(d) for d in census()}
    stale = [key for key in ALLOWLIST if key not in flagged]
    assert stale == [], f"allowlisted but reached by a run: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


#: the modules that drive churn: two hosts and the burst injector
CHURN_PATH = ("gridsim/churn.py", "gridsim/faulty.py", "gridsim/faults.py")


def _own(node: ast.expr) -> bool:
    """``self`` or ``super()``."""
    if isinstance(node, ast.Call):
        node = node.func
        return isinstance(node, ast.Name) and node.id == "super"
    return isinstance(node, ast.Name) and node.id == "self"


@pytest.mark.parametrize("module", CHURN_PATH)
def test_the_churn_path_reads_no_private_attribute_of_another_object(module):
    tree = ast.parse((SRC / module).read_text())
    reads = [
        f"{module}:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not _own(node.value)
    ]
    assert reads == [], f"the churn path reaches into another object: {reads}"


def test_one_definition_draws_a_background_churn_gap():
    """Every ``.exponential`` draw in ``src/``: the churn driver's gap and
    the job arrivals'."""
    drawers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        spans = _definitions(path, tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "exponential"
            ):
                inner = min(
                    (d for d in spans if d.first <= node.lineno <= d.last),
                    key=lambda d: d.last - d.first,
                )
                drawers.add(_key(inner))
    assert drawers == {
        ("gridsim/churn.py", "churn_process"),
        ("workload/jobs.py", "arrival_times"),
    }
