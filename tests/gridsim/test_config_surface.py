"""A census of the run configs' surface: no field that no run sets.

A field of a run config is a knob somebody turns.  One that every run
leaves at its default is a constant with a settable name, and each config
that forwards it grows a copy.  These tests read ``src/``, ``benchmarks/``
and ``examples/`` and require each field of the five run configs, and of
every frozen parameter object they hold (the workload preset, the fault
plan and its bursts, the network spec and its latency and flap shapes), to
be set by one of them, by a keyword or a positional argument to the class's
constructor, to ``make_config`` or to ``dataclasses.replace``.  A keyword
whose value is an attribute of the same name (``substrate=self.substrate``)
forwards a field that is set somewhere else, so it does not count.  A field
only a test turns goes on ``ALLOWLIST`` with the test or ROADMAP item that
sets it.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path

from repro.gridsim.config import ChurnConfig, MatchmakingConfig
from repro.gridsim.faults import CrashBurst, DiurnalChurn, FaultPlan, JoinBurst
from repro.gridsim.faulty import FaultyGridConfig
from repro.net import FlapSpec, LatencySpec, NetworkSpec
from repro.overlay.base import ProtocolConfig
from repro.service.core import ServiceConfig
from repro.workload.presets import WorkloadPreset

REPO = Path(__file__).resolve().parents[2]

CONFIGS = {
    cls.__name__: [f.name for f in dataclasses.fields(cls) if f.init]
    for cls in (
        ProtocolConfig,
        MatchmakingConfig,
        ChurnConfig,
        FaultyGridConfig,
        ServiceConfig,
        WorkloadPreset,
        FaultPlan,
        CrashBurst,
        JoinBurst,
        DiurnalChurn,
        NetworkSpec,
        LatencySpec,
        FlapSpec,
    )
}

#: the benchmark builds ``LatencySpec("lognormal", mu=..., sigma=...)`` with
#: ``kind`` positional, so ``kind`` and its test-only ``constant`` /
#: ``uniform`` shapes wait for a benchmark change (ROADMAP 1(a))
_LATENCY_SHAPES = "tests/net/test_model.py, until ROADMAP 1(a)"

#: (config, field) -> who sets it, when no run does
ALLOWLIST = {
    ("LatencySpec", "low"): _LATENCY_SHAPES,
    ("LatencySpec", "high"): _LATENCY_SHAPES,
}


@functools.cache
def sources(*roots: str):
    """(path, module) of every ``.py`` file under ``roots``, parsed once
    for all the surface censuses."""
    return tuple(
        (path, ast.parse(path.read_text()))
        for root in roots
        for path in sorted((REPO / root).rglob("*.py"))
    )


def modules(*roots: str):
    for _, tree in sources(*roots):
        yield tree


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _forwards(keyword: ast.keyword) -> bool:
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg


def _config_of(node: ast.AST) -> str:
    """The config class an expression or annotation names, if any."""
    if isinstance(node, ast.Call):
        name = _callee(node)
        if name == "make_config" and node.args:
            node = node.args[0]
        elif name in CONFIGS:
            return name
    if isinstance(node, ast.Name) and node.id in CONFIGS:
        return node.id
    if isinstance(node, ast.Constant) and node.value in CONFIGS:
        return node.value
    return ""


def _bound_names(tree: ast.AST) -> dict[str, str]:
    """Names a module binds to one config: ``x = Cls(...)``, ``x: Cls``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _config_of(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = _config_of(node.value)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _config_of(node.annotation):
                bound[node.arg] = _config_of(node.annotation)
    return bound


def _targets(call: ast.Call, enclosing: str, bound: dict[str, str]):
    """(config, positional args, keywords) a call sets fields through."""
    name = _callee(call)
    keywords = [k for k in call.keywords if k.arg is not None]
    if name in CONFIGS:
        return [(name, call.args, keywords)]
    if name == "make_config":
        cls = _config_of(call)
        return [(cls, call.args[1:], keywords)] if cls else []
    if name == "replace" and call.args and keywords:
        first = call.args[0]
        if isinstance(first, ast.Name):
            if first.id == "self" and enclosing in CONFIGS:
                return [(enclosing, [], keywords)]
            if first.id in bound:
                return [(bound[first.id], [], keywords)]
        # an unknown instance: any config that has every field named
        names = {k.arg for k in keywords}
        return [
            (cls, [], keywords)
            for cls, fields in CONFIGS.items()
            if names <= set(fields)
        ]
    return []


def set_fields(tree: ast.AST) -> set[tuple[str, str]]:
    """(config, field) pairs a module sets, forwarding left out."""
    bound = _bound_names(tree)
    found = set()

    def visit(node: ast.AST, enclosing: str) -> None:
        if isinstance(node, ast.ClassDef):
            enclosing = node.name
        if isinstance(node, ast.Call):
            for cls, args, keywords in _targets(node, enclosing, bound):
                fields = CONFIGS[cls]
                found.update((cls, field) for field in fields[: len(args)])
                found.update(
                    (cls, k.arg)
                    for k in keywords
                    if k.arg in fields and not _forwards(k)
                )
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, "")
    return found


@functools.cache
def run_set_fields() -> frozenset[tuple[str, str]]:
    found = set()
    for tree in modules("src", "benchmarks", "examples"):
        found |= set_fields(tree)
    return frozenset(found)


def test_every_run_config_field_is_set_by_a_run():
    found = run_set_fields()
    unset = [
        f"{cls}.{name}"
        for cls, fields in CONFIGS.items()
        for name in fields
        if (cls, name) not in found and (cls, name) not in ALLOWLIST
    ]
    assert unset == [], f"fields no run sets (make them constants): {unset}"


def test_the_allowlist_names_only_fields_no_run_sets():
    found = run_set_fields()
    stale = [
        f"{cls}.{name}"
        for cls, name in ALLOWLIST
        if name not in CONFIGS[cls] or (cls, name) in found
    ]
    assert stale == [], f"allowlisted but set by a run, or gone: {stale}"


def test_the_census_sees_forwarding_and_positional_arguments():
    tree = ast.parse(
        "MatchmakingConfig(p, substrate=self.substrate)\n"
        "make_config(ChurnConfig, seed=seed)\n"
        "def vary(base: MatchmakingConfig):\n"
        "    return replace(base, scheme=s)\n"
        "FaultPlan(network=NetworkSpec(loss=x))\n"
        "def grow(preset: WorkloadPreset):\n"
        "    return replace(preset, jobs=n)\n"
    )
    assert set_fields(tree) == {
        ("MatchmakingConfig", "preset"),
        ("ChurnConfig", "seed"),
        ("MatchmakingConfig", "scheme"),
        ("FaultPlan", "network"),
        ("NetworkSpec", "loss"),
        ("WorkloadPreset", "jobs"),
    }
