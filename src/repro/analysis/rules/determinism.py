"""Determinism rules: DET001 (RNG), DET002 (wall clock), DET003 (sets).

The replay models and drift gates assume two runs of one experiment do
*identical work*.  These rules catch the three classic ways Python code
silently breaks that: process-global RNG state, wall-clock reads inside
model code, and iteration order borrowed from an unordered set.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from ..engine import FileContext, Rule, dotted_name, register
from ..findings import Finding, Severity


class _ImportMap:
    """Which local names refer to the modules a rule cares about."""

    def __init__(self, tree: ast.Module, module: str, submodule: str = ""):
        #: names bound to the module itself (``import numpy as np``).
        self.module_aliases: Set[str] = set()
        #: names bound to ``module.submodule`` (``from numpy import random``).
        self.submodule_aliases: Set[str] = set()
        #: bare names imported from the (sub)module, name -> origin attr.
        self.member_aliases: Dict[str, str] = {}
        full_sub = f"{module}.{submodule}" if submodule else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == module:
                        self.module_aliases.add(alias.asname or module)
                    elif full_sub and alias.name == full_sub:
                        # ``import numpy.random as nr`` binds the leaf only
                        # when renamed; otherwise it binds ``numpy``.
                        if alias.asname:
                            self.submodule_aliases.add(alias.asname)
                        else:
                            self.module_aliases.add(module)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if submodule and node.module == module:
                    for alias in node.names:
                        if alias.name == submodule:
                            self.submodule_aliases.add(alias.asname or submodule)
                source = node.module
                if source == (full_sub or module):
                    for alias in node.names:
                        self.member_aliases[alias.asname or alias.name] = alias.name


def _call_target(
    call: ast.Call, imports: _ImportMap, submodule: str = ""
) -> str:
    """The function name within the tracked (sub)module, or ''.

    Resolves ``np.random.rand`` / ``random.shuffle`` / ``from numpy.random
    import rand; rand(...)`` down to ``"rand"``-style member names.
    """
    func = call.func
    name = dotted_name(func)
    if name is None:
        return ""
    parts = name.split(".")
    if len(parts) == 1:
        return imports.member_aliases.get(parts[0], "")
    if submodule:
        # ``<module_alias>.<submodule>.<fn>`` or ``<sub_alias>.<fn>``.
        if len(parts) == 3 and parts[0] in imports.module_aliases and parts[1] == submodule:
            return parts[2]
        if len(parts) == 2 and parts[0] in imports.submodule_aliases:
            return parts[1]
        return ""
    if len(parts) == 2 and parts[0] in imports.module_aliases:
        return parts[1]
    return ""


@register
class UnseededRandom(Rule):
    """DET001: process-global RNG calls instead of a seeded generator."""

    rule_id = "DET001"
    severity = Severity.ERROR
    summary = (
        "unseeded RNG: np.random module-level calls or stdlib random.* "
        "outside an explicitly seeded Random/Generator"
    )

    #: numpy.random members that *construct* seedable generators.
    _NUMPY_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "MT19937",
            "Philox",
            "SFC64",
        }
    )
    #: stdlib random members that are constructors, not global-state calls.
    _STDLIB_ALLOWED = frozenset({"Random", "SystemRandom"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        numpy_imports = _ImportMap(ctx.tree, "numpy", "random")
        stdlib_imports = _ImportMap(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            member = _call_target(node, numpy_imports, "random")
            if member and member not in self._NUMPY_ALLOWED:
                yield ctx.finding(
                    self,
                    node,
                    f"np.random.{member} uses numpy's process-global RNG; "
                    "thread a seeded np.random.default_rng(seed) through "
                    "instead",
                )
                continue
            member = _call_target(node, stdlib_imports)
            if member and member not in self._STDLIB_ALLOWED:
                yield ctx.finding(
                    self,
                    node,
                    f"random.{member} mutates the interpreter-global RNG; "
                    "construct random.Random(seed) and call it there",
                )


@register
class WallClock(Rule):
    """DET002: wall-clock reads outside the sanctioned timing sites."""

    rule_id = "DET002"
    severity = Severity.ERROR
    summary = (
        "wall-clock read (time.*, datetime.now) outside obs/tracing and "
        "the runner's timing sites"
    )

    #: The modules allowed to read clocks: the span tracer, the
    #: experiment runner and bench harness (their timings are reporting,
    #: never model inputs), and the resilience run report.
    allowed_modules: Tuple[str, ...] = (
        "repro/obs/tracing.py",
        "repro/experiments/runner.py",
        "repro/experiments/bench.py",
        "repro/resilience/report.py",
    )

    _TIME_MEMBERS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )
    _DATETIME_MEMBERS = frozenset({"now", "utcnow", "today"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_module(*self.allowed_modules):
            return
        time_imports = _ImportMap(ctx.tree, "time")
        datetime_imports = _ImportMap(ctx.tree, "datetime")
        datetime_classes = {
            alias
            for alias, origin in datetime_imports.member_aliases.items()
            if origin in ("datetime", "date")
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            member = _call_target(node, time_imports)
            if member in self._TIME_MEMBERS:
                yield ctx.finding(
                    self,
                    node,
                    f"time.{member}() leaks wall-clock state into "
                    "deterministic code; timings belong in obs spans or "
                    "the runner",
                )
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[-1] not in self._DATETIME_MEMBERS or len(parts) < 2:
                continue
            owner = parts[-2]
            is_datetime = (
                owner in ("datetime", "date")
                and (
                    len(parts) == 2
                    and (
                        owner in datetime_classes
                        or owner in datetime_imports.module_aliases
                    )
                    or len(parts) == 3
                    and parts[0] in datetime_imports.module_aliases
                )
            )
            if is_datetime:
                yield ctx.finding(
                    self,
                    node,
                    f"{name}() reads the wall clock; deterministic code "
                    "must take timestamps as inputs",
                )


def _is_unordered_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a set with arbitrary iteration order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_unordered_set_expr(node.left) or _is_unordered_set_expr(
            node.right
        )
    return False


@register
class UnorderedIteration(Rule):
    """DET003: iterating a set expression without ``sorted``.

    Set iteration order depends on insertion history and hash
    randomization; any loop over one that feeds exported results makes
    output ordering a run-to-run coin flip.  Wrap the expression in
    ``sorted(...)`` (every pre-existing call site already does).
    """

    rule_id = "DET003"
    severity = Severity.ERROR
    summary = "iteration over an unordered set expression (wrap in sorted())"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        iter_exprs: List[ast.AST] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_exprs.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iter_exprs.extend(comp.iter for comp in node.generators)
        for expr in iter_exprs:
            if _is_unordered_set_expr(expr):
                yield ctx.finding(
                    self,
                    expr,
                    "iteration order over a set is not deterministic; "
                    "wrap the expression in sorted(...)",
                )
