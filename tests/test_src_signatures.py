"""A census of ``src/`` signatures: every input form a run uses, no other.

These tests parse ``src/``, ``benchmarks/`` and ``examples/`` with ``ast``
and hold each parameter of every function, method and constructor under
``src/repro`` to three rules:

1. **A defaulted parameter is passed by some run.**  A default that no call
   there ever overrides is a constant with a settable name: every reader
   has to ask which value a run uses, and a test that turns it exercises a
   path no run takes.  Each defaulted positional-or-keyword and
   keyword-only parameter must be passed by some call, by keyword or by
   position.  A test that needs another value monkeypatches a module
   constant instead.
2. **A default is relied on by some run.**  A default that every call
   overrides is read only by tests, which then run a value no experiment
   uses.  Some call must leave the parameter out; a call with ``*`` /
   ``**`` unpacking counts as leaving out what it does not name itself.
3. **A parameter takes more than one value.**  One that every call passes
   as the same number, bool or ``None`` literal (``+1`` and ``1`` are one
   value) is a constant in disguise, defaulted or not.  String literals
   (names and labels) and module-constant names are exempt.

Calls are bound to definitions by name, as in ``tests/test_src_surface.py``
(so the census errs toward "passed"), with these rules on top:

* ``Cls(...)`` reaches ``Cls.__init__`` (or the one it inherits) and
  ``super().m(...)`` reaches the ``m`` of the enclosing class's bases;
  a bound call skips ``self`` / ``cls``, an unbound ``Cls.m(obj, ...)``
  does not;
* ``cls(...)`` in a classmethod reaches the constructors of the class and
  of every subclass;
* a callable passed as an argument (``make_protocol=Cls.build``,
  ``simulate(label, ChurnSimulation, config)``) is reached through every
  call of that parameter's or keyword's name (``descriptor.make_protocol
  (...)``, ``sim_class(config, tracer=...)``);
* a call that reaches no definition but is handed a callable
  (``asyncio.to_thread(replay_trace, client, jobs, dilation=...)``) calls
  it with the arguments after it, unless it is a type test
  (``isinstance(x, Cls)``, ``issubclass(...)``), which calls nothing;
* ``*args`` / ``**kwargs`` that a function forwards carry what its own
  callers put there (``cls(overlay, config, **kwargs)``); any other
  unpacked sequence passes every positional parameter from its place on.

A parameter named with a leading ``_`` is a default-bound local
(``def sink(_store=store)``), not a knob, and is not counted.  A parameter
kept although a rule flags it goes on that rule's allowlist with the
reason: ``ALLOWLIST``, ``RELIED_ALLOWLIST`` or ``ONE_VALUE_ALLOWLIST``.
"""

from __future__ import annotations

import ast
import fnmatch
import functools
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from tests.gridsim.test_config_surface import REPO, _callee, sources

SRC = REPO / "src" / "repro"

#: (module path glob relative to ``src/repro``, qualified name, parameter)
#: -> why it stays although no run passes it
ALLOWLIST: Dict[Tuple[str, str, str], str] = {
    ("*", "*main", "argv"): (
        "a CLI entry point: ``python -m`` calls it with no argument and "
        "it parses sys.argv; the tests pass argv"
    ),
    ("sim/clock.py", "Clock.call_every", "start_delay"): (
        "ROADMAP 7(a): the per-node timer experiment staggers each node's "
        "first round through it"
    ),
    ("service/client.py", "ServiceClient.__init__", "timeout"): (
        "the HTTP client is the service's API for programs outside this "
        "repo, and a socket timeout depends on the caller's network; the "
        "restart and gateway tests bound their reads from servers they kill "
        "at 5-30 s through it"
    ),
}

#: (module path glob, qualified name, parameter) -> why its default stays
#: although every run passes the parameter
RELIED_ALLOWLIST: Dict[Tuple[str, str, str], str] = {}

#: (module path glob, qualified name, parameter) -> why it stays although
#: every run passes it the same literal
ONE_VALUE_ALLOWLIST: Dict[Tuple[str, str, str], str] = {
    ("gridsim/invariants.py", "check_service_accounting", "final"): (
        "an oracle for a running service: benchmarks/e2e checks the drained "
        "service with final=True, and tests/gridsim/test_recovery_loop.py "
        "checks one mid-flight with final=False"
    ),
}


class Function(NamedTuple):
    path: str
    qualname: str
    owner: Optional[str]  # the class a method is defined in
    kind: str  # "function", "method", "classmethod" or "staticmethod"
    positional: Tuple[str, ...]  # self / cls included
    keyword_only: Tuple[str, ...]
    defaulted: Tuple[str, ...]  # the census's parameters, in order
    vararg: Optional[str]
    kwarg: Optional[str]

    @property
    def bound_skip(self) -> int:
        """Positional parameters a bound call fills implicitly."""
        return 0 if self.kind in ("function", "staticmethod") else 1


class ClassInfo(NamedTuple):
    bases: Tuple[str, ...]
    methods: Dict[str, Function]


class Call(NamedTuple):
    node: ast.Call
    caller: Optional[Function]  # the innermost enclosing function
    owner: Optional[str]  # the innermost enclosing class


def _kind(node: ast.AST, in_class: bool) -> str:
    names = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
    if not in_class:
        return "function"
    if "staticmethod" in names:
        return "staticmethod"
    return "classmethod" if "classmethod" in names else "method"


def _function(path: str, qualname: str, owner, node, kind: str) -> Function:
    args = node.args
    positional = tuple(a.arg for a in args.posonlyargs + args.args)
    with_default = positional[len(positional) - len(args.defaults) :]
    with_default += tuple(
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return Function(
        path,
        qualname,
        owner,
        kind,
        positional,
        tuple(a.arg for a in args.kwonlyargs),
        tuple(name for name in with_default if not name.startswith("_")),
        args.vararg.arg if args.vararg else None,
        args.kwarg.arg if args.kwarg else None,
    )


class Tree(NamedTuple):
    functions: List[Function]
    classes: Dict[str, List[ClassInfo]]
    calls: List[Call]


def _collect(modules: Iterable[Tuple[str, ast.Module]]) -> Tree:
    functions: List[Function] = []
    classes: Dict[str, List[ClassInfo]] = defaultdict(list)
    calls: List[Call] = []

    def visit(node, path, prefix, caller, owner, methods):
        if isinstance(node, ast.ClassDef):
            info = ClassInfo(
                tuple(b.id for b in node.bases if isinstance(b, ast.Name)), {}
            )
            classes[node.name].append(info)
            for child in node.body:
                visit(child, path, f"{prefix}{node.name}.", caller, node.name, info.methods)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _function(
                path,
                prefix + node.name,
                owner if methods is not None else None,
                node,
                _kind(node, methods is not None),
            )
            functions.append(fn)
            if methods is not None:
                methods[node.name] = fn
            for child in ast.iter_child_nodes(node):
                visit(child, path, f"{prefix}{node.name}.", fn, owner, None)
            return
        if isinstance(node, ast.Call):
            calls.append(Call(node, caller, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, prefix, caller, owner, None)

    for path, tree in modules:
        visit(tree, path, "", None, None, None)
    return Tree(functions, classes, calls)


Target = Tuple[Function, int]  # the function and the parameters a call skips


class Binder:
    """Resolves a call's callee to the definitions it may reach."""

    def __init__(self, tree: Tree):
        self.classes = tree.classes
        self.plain: Dict[str, List[Function]] = defaultdict(list)
        self.methods: Dict[str, List[Function]] = defaultdict(list)
        for fn in tree.functions:
            name = fn.qualname.rsplit(".", 1)[-1]
            (self.methods if fn.owner else self.plain)[name].append(fn)
        self.aliases: Dict[str, Set[Target]] = defaultdict(set)
        for call in tree.calls:
            self._learn_aliases(call)

    def named(self, name: str) -> List[Function]:
        return self.methods.get(name, []) + self.plain.get(name, [])

    def lookup(self, cls: str, name: str, seen=()) -> List[Function]:
        """``cls.name`` as attribute lookup finds it, over every class so named."""
        found = []
        for info in self.classes.get(cls, ()):
            if name in info.methods:
                found.append(info.methods[name])
                continue
            for base in info.bases:
                if base not in seen:
                    found += self.lookup(base, name, seen + (cls,))
        return found

    def subclasses(self, cls: str) -> Set[str]:
        out = {cls}
        grew = True
        while grew:
            grew = False
            for name, infos in self.classes.items():
                if name not in out and any(set(i.bases) & out for i in infos):
                    out.add(name)
                    grew = True
        return out

    def construct(self, cls: str) -> List[Target]:
        return [(fn, 1) for fn in self.lookup(cls, "__init__")]

    def reference(self, node: ast.expr) -> List[Target]:
        """What calling the callable an argument names reaches."""
        if isinstance(node, ast.Name):
            if node.id in self.classes:
                return self.construct(node.id)
            return [(fn, 0) for fn in self.plain.get(node.id, ())]
        if isinstance(node, ast.Attribute):
            return [(fn, fn.bound_skip) for fn in self.named(node.attr)]
        return []

    def targets(self, call: Call) -> List[Target]:
        func = call.node.func
        name = _callee(call.node)
        found: List[Target] = []
        if isinstance(func, ast.Name):
            if name in self.classes:
                found += self.construct(name)
            caller = call.caller
            if (
                caller is not None
                and caller.kind == "classmethod"
                and caller.positional[:1] == (name,)
            ):
                for cls in sorted(self.subclasses(caller.owner)):
                    found += self.construct(cls)
            found += [(fn, 0) for fn in self.plain.get(name, ())]
        elif isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Call) and _callee(value) == "super":
                for info in self.classes.get(call.owner, ()):
                    for base in info.bases:
                        found += [(fn, fn.bound_skip) for fn in self.lookup(base, name)]
            elif isinstance(value, ast.Name) and value.id in self.classes:
                found += [
                    (fn, 1 if fn.kind == "classmethod" else 0)
                    for fn in self.lookup(value.id, name)
                ]
            else:
                found += [(fn, fn.bound_skip) for fn in self.named(name)]
        found += self.aliases.get(name, ())
        return list(dict.fromkeys(found))

    def _learn_aliases(self, call: Call) -> None:
        node = call.node
        for keyword in node.keywords:
            if keyword.arg is not None:
                self.aliases[keyword.arg].update(self.reference(keyword.value))
        refs = [(i, self.reference(arg)) for i, arg in enumerate(node.args)]
        refs = [(i, r) for i, r in refs if r and not isinstance(node.args[i], ast.Starred)]
        if not refs:
            return
        for fn, skip in self.targets(call):
            for i, ref in refs:
                if i + skip < len(fn.positional):
                    self.aliases[fn.positional[i + skip]].update(ref)


class Invocation(NamedTuple):
    args: List[ast.expr]
    keywords: List[ast.keyword]
    caller: Optional[Function]
    targets: List[Target]


#: builtins that are handed a class to test against, and call nothing
_TYPE_TESTS = frozenset({"isinstance", "issubclass"})


def _invocations(tree: Tree) -> List[Invocation]:
    """Each call with the definitions it reaches.  A call that reaches none
    (``asyncio.to_thread``, ``functools.partial``) but is handed a callable
    calls that callable with the arguments after it; a type test does not."""
    binder = Binder(tree)
    out = []
    for call in tree.calls:
        args, keywords = call.node.args, call.node.keywords
        targets = binder.targets(call)
        if not targets and _callee(call.node) not in _TYPE_TESTS:
            for i, arg in enumerate(args):
                targets = binder.reference(arg)
                if targets:
                    args = args[i + 1 :]
                    break
        if targets:
            out.append(Invocation(args, keywords, call.caller, targets))
    return out


def _passed(tree: Tree) -> Dict[Function, Set[str]]:
    """Every parameter some call passes, ``*args`` / ``**kwargs`` followed."""
    passed: Dict[Function, Set[str]] = defaultdict(set)
    #: what callers put in a function's ``*args`` (indices) and ``**kwargs``
    extra_pos: Dict[Function, Set[int]] = defaultdict(set)
    extra_kw: Dict[Function, Set[str]] = defaultdict(set)

    def apply(call: Invocation, fn: Function, skip: int) -> None:
        caller = call.caller
        indices: Set[int] = set()
        for i, arg in enumerate(call.args):
            if not isinstance(arg, ast.Starred):
                indices.add(i)
            elif caller is not None and _name(arg.value) == caller.vararg:
                indices |= {i + j for j in extra_pos[caller]}
                break
            else:  # a sequence of unknown length
                passed[fn].update(fn.positional[i + skip :])
                break
        for i in indices:
            if i + skip < len(fn.positional):
                passed[fn].add(fn.positional[i + skip])
            elif fn.vararg:
                extra_pos[fn].add(i + skip - len(fn.positional))
        keywords = {k.arg for k in call.keywords if k.arg is not None}
        for k in call.keywords:
            if k.arg is None and caller is not None and _name(k.value) == caller.kwarg:
                keywords |= extra_kw[caller]
        named = set(fn.positional + fn.keyword_only)
        for k in keywords:
            if k in named:
                passed[fn].add(k)
            elif fn.kwarg:
                extra_kw[fn].add(k)

    def size() -> int:
        return sum(map(len, (*passed.values(), *extra_pos.values(), *extra_kw.values())))

    calls = _invocations(tree)
    before = -1
    while before != size():
        before = size()
        for call in calls:
            for fn, skip in call.targets:
                apply(call, fn, skip)
    return passed


def _name(node: ast.expr) -> Optional[str]:
    return node.id if isinstance(node, ast.Name) else None


def _explicit(call: Invocation, fn: Function, skip: int) -> Dict[str, ast.expr]:
    """The parameters a call names itself, by position or keyword, with the
    expressions it passes; nothing an unpacked ``*`` / ``**`` may carry."""
    named: Dict[str, ast.expr] = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i + skip < len(fn.positional):
            named[fn.positional[i + skip]] = arg
    for k in call.keywords:
        if k.arg is not None:
            named[k.arg] = k.value
    return named


def _literal(node: ast.expr):
    """A number, bool or ``None`` literal (``+1`` / ``-1`` folded) as a
    hashable key; ``None`` for anything else, string literals included."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        sign = -1 if isinstance(node.op, ast.USub) else 1
        node = node.operand
        if not (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            return None
    if not isinstance(node, ast.Constant):
        return None
    value = node.value
    if value is None or type(value) is bool:
        return (type(value).__name__, value)
    if type(value) in (int, float):
        return (type(value).__name__, sign * value)
    return None


Parameter = Tuple[str, str, str]  # (module path, qualified name, parameter)


def unpassed(modules: Iterable[Tuple[str, ast.Module]], counted) -> List[Parameter]:
    """The defaulted parameters of the functions in modules ``counted(path)``
    selects that no call in ``modules`` passes."""
    tree = _collect(modules)
    passed = _passed(tree)
    return [
        (fn.path, fn.qualname, name)
        for fn in tree.functions
        if counted(fn.path)
        for name in fn.defaulted
        if name not in passed[fn]
    ]


def _bound_calls(tree: Tree) -> Dict[Function, List[Dict[str, ast.expr]]]:
    """For each function, what each call that reaches it names explicitly."""
    seen: Dict[Function, List[Dict[str, ast.expr]]] = defaultdict(list)
    for call in _invocations(tree):
        for fn, skip in call.targets:
            seen[fn].append(_explicit(call, fn, skip))
    return seen


def overridden(modules: Iterable[Tuple[str, ast.Module]], counted) -> List[Parameter]:
    """The defaulted parameters (of the functions ``counted(path)`` selects)
    whose default no call in ``modules`` relies on: every call that reaches
    the function names them itself."""
    tree = _collect(modules)
    seen = _bound_calls(tree)
    return [
        (fn.path, fn.qualname, name)
        for fn in tree.functions
        if counted(fn.path) and seen[fn]
        for name in fn.defaulted
        if all(name in named for named in seen[fn])
    ]


def one_valued(modules: Iterable[Tuple[str, ast.Module]], counted) -> List[Parameter]:
    """The parameters, defaulted or not, that every call in ``modules``
    reaching their function passes as one and the same number, bool or
    ``None`` literal."""
    tree = _collect(modules)
    seen = _bound_calls(tree)
    out = []
    for fn in tree.functions:
        if not (counted(fn.path) and seen[fn]):
            continue
        for name in fn.positional[fn.bound_skip :] + fn.keyword_only:
            if name.startswith("_"):
                continue
            values = {_literal(named[name]) if name in named else None for named in seen[fn]}
            if len(values) == 1 and None not in values:
                out.append((fn.path, fn.qualname, name))
    return out


def _label(path) -> str:
    if SRC in path.parents:
        return str(path.relative_to(SRC))
    return str(path.relative_to(REPO))


@functools.cache
def run_modules() -> Tuple[Tuple[str, ast.Module], ...]:
    return tuple(
        (_label(path), tree) for path, tree in sources("src", "benchmarks", "examples")
    )


def _in_src(label: str) -> bool:
    return not label.startswith(("benchmarks/", "examples/"))


#: rule -> (what it finds, its allowlist, what a finding is)
RULES = {
    "unpassed": (
        unpassed,
        ALLOWLIST,
        "defaulted parameters no call in src/, benchmarks/ or examples/ passes "
        "(make them module constants, delete them, or allowlist with a reason)",
    ),
    "relied": (
        overridden,
        RELIED_ALLOWLIST,
        "defaults no call in src/, benchmarks/ or examples/ relies on, because "
        "every call passes the parameter (drop the default, or allowlist with "
        "a reason)",
    ),
    "one value": (
        one_valued,
        ONE_VALUE_ALLOWLIST,
        "parameters every call in src/, benchmarks/ or examples/ passes as the "
        "same literal (make them constants, or allowlist with a reason)",
    ),
}


@functools.cache
def census(rule: str = "unpassed") -> Tuple[Parameter, ...]:
    find = RULES[rule][0]
    return tuple(find(run_modules(), _in_src))


def defaulted_count() -> int:
    """Defaulted parameters in ``src/``, ``_``-prefixed ones left out."""
    tree = _collect(run_modules())
    return sum(len(fn.defaulted) for fn in tree.functions if _in_src(fn.path))


def _allowed(
    param: Parameter, allowlist: Dict[Tuple[str, str, str], str]
) -> Optional[Tuple[str, str, str]]:
    """The ``allowlist`` key that covers a parameter, if any."""
    path, qualname, name = param
    for key in allowlist:
        glob, qualname_glob, allowed = key
        if (
            fnmatch.fnmatch(path, glob)
            and fnmatch.fnmatch(qualname, qualname_glob)
            and name == allowed
        ):
            return key
    return None


def _flagged(rule: str) -> List[str]:
    _, allowlist, _ = RULES[rule]
    return [
        f"{path}: {qualname}({name})"
        for path, qualname, name in census(rule)
        if _allowed((path, qualname, name), allowlist) is None
    ]


def test_every_defaulted_parameter_is_passed_by_a_run():
    assert _flagged("unpassed") == [], RULES["unpassed"][2]


def test_every_default_is_relied_on_by_a_run():
    assert _flagged("relied") == [], RULES["relied"][2]


def test_no_parameter_takes_one_literal_at_every_call():
    assert _flagged("one value") == [], RULES["one value"][2]


def test_signature_allowlist_entries_are_needed_and_give_a_reason():
    for rule, (_, allowlist, _) in RULES.items():
        used = {_allowed(param, allowlist) for param in census(rule)}
        stale = [key for key in allowlist if key not in used]
        assert stale == [], f"{rule}: allowlisted but not flagged, or gone: {stale}"
        assert all(reason.strip() for reason in allowlist.values())


def test_the_census_binds_calls_by_each_rule():
    """Every defaulted parameter of the first snippet but ``unpassed`` and
    ``b`` is passed through one binding rule: a rule that stopped binding
    would flag its parameter, one that bound too widely would pass ``b``.
    The second snippet holds one case per finding of the other two rules,
    and a type test, which calls no constructor."""
    tree = ast.parse(
        "class Base:\n"
        "    def __init__(self, a, by_position=1, by_keyword=2, forwarded=3, unpassed=4):\n"
        "        pass\n"
        "class Child(Base):\n"
        "    def __init__(self, a, up=0):\n"
        "        super().__init__(a, up)\n"  # super().__init__, by position
        "class Unrelated:\n"  # ... reaches no other class's constructor
        "    def __init__(self, a, b=0):\n"
        "        pass\n"
        "class Proto(Base):\n"
        "    @classmethod\n"
        "    def build(cls, a, **kwargs):\n"
        "        return cls(a, **kwargs)\n"  # **kwargs forwarding
        "class Host:\n"
        "    def __init__(self, config, tracer=None):\n"
        "        pass\n"
        "def simulate(sim_class, config):\n"
        "    return sim_class(config, tracer=1)\n"  # a host through a variable
        "def maker(overlay, network=None):\n"
        "    pass\n"
        "class Descriptor:\n"
        "    def __init__(self, make_protocol):\n"
        "        self.make_protocol = make_protocol\n"
        "def build_from(descriptor):\n"
        "    return descriptor.make_protocol(0, network=1)\n"  # a held maker
        "class Obj:\n"
        "    def method(self, x, y=0):\n"  # by position, ``self`` skipped
        "        pass\n"
        "def replay(client, pace=None):\n"
        "    pass\n"
        "def sink(value, _store=None):\n"  # a default-bound local
        "    pass\n"
        "Child(0, up=1)\n"
        "Base(0, by_keyword=5)\n"
        "Proto.build(0, forwarded=6)\n"
        "simulate(Host, None)\n"
        "Descriptor(make_protocol=maker)\n"
        "Obj().method(1, 2)\n"
        "asyncio.to_thread(replay, None, pace=2)\n"  # handed on by the stdlib
        "sink(1)\n"
    )
    assert unpassed([("snippet.py", tree)], lambda path: True) == [
        ("snippet.py", "Base.__init__", "unpassed"),
        ("snippet.py", "Unrelated.__init__", "b"),
    ]

    tree = ast.parse(
        "def always(x, flag=False):\n"  # a default every call overrides
        "    pass\n"
        "def unpacked(x, flag=False):\n"  # ... but for one ``**`` call
        "    pass\n"
        "class Canvas:\n"
        "    def shade(self, level, label):\n"
        "        pass\n"
        "class Sized:\n"
        "    def __init__(self, n=0):\n"  # every construction overrides it
        "        pass\n"
        "always(1, flag=True)\n"
        "always(2, True)\n"  # flag: one literal everywhere; x: two literals
        "unpacked(1, flag=True)\n"
        "unpacked(1, **options)\n"
        "Canvas().shade(+1, 'a')\n"  # +1 and 1 are one value ...
        "Canvas().shade(1, label='a')\n"  # ... a string is a label
        "Sized(n=1)\n"
        "Sized(2)\n"
        "isinstance(x, Sized)\n"  # tests a type: constructs nothing
    )
    snippet = [("snippet.py", tree)]
    assert overridden(snippet, lambda path: True) == [
        ("snippet.py", "always", "flag"),
        ("snippet.py", "Sized.__init__", "n"),
    ]
    assert one_valued(snippet, lambda path: True) == [
        ("snippet.py", "always", "flag"),
        ("snippet.py", "unpacked", "x"),
        ("snippet.py", "Canvas.shade", "level"),
    ]
