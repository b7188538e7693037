"""Interprocedural taint engine behind ``FLOW001``/``FLOW002``/``NP002``.

The per-file rules prove *local* discipline (no unseeded RNG call, no
wall-clock read outside timing sites).  This engine proves the
*whole-program* invariant those rules exist for: **no nondeterministic
source may reach a payload-writing sink**, across function boundaries.
It runs three lanes over the :mod:`repro.analysis.callgraph` project:

* ``VALUE`` (FLOW001) -- nondeterministic *values*: unseeded RNG,
  wall-clock reads (outside the sanctioned timing modules), and
  ``os.environ`` reads (outside the sanctioned configuration modules).
* ``ORDER`` (FLOW002) -- nondeterministic *ordering*: iteration over
  unordered set expressions, pool-completion order
  (``as_completed``/``imap_unordered``), and filesystem listing order.
  ``sorted()``, stable argsorts, and the deterministic-merge helpers
  (``merge_newest_wins``) sanitize this lane; assigning into an indexed
  slot (``results[i] = x``) places a value deterministically and does
  not propagate order taint.
* ``DTYPE`` (NP002) -- unclamped float values: true division,
  transcendental calls, and ``astype(float)`` results flowing into a
  float->int64 ``astype`` cast with no dominating ``np.clip`` /
  :func:`repro.indexes.domain.clamped_int64` (the statically-checkable
  form of the PR-5 RadixSpline out-of-domain overflow).

Mechanics: each function (and each module body) is abstractly
interpreted twice (the second pass stabilizes loop-carried flows).
Variables map to sets of *origin nodes* -- source sites, callee
returns, or the function's own parameters -- and every statement adds
edges to a per-lane origin graph:

    source-site  ->  param(f, i)  ->  ret(g)  ->  ...  ->  sink-site

Findings are the source->sink paths of that graph, discovered by BFS
(cycles in the call graph are handled by construction), and each
finding's message carries the full call path.  Sinks are the payload
surfaces every payload stakes bit-identity on: the
:mod:`repro.ioutil` atomic writers, ``MetricsRegistry`` recording, and
``json.dump``/``dumps``.

The registry below is declarative on purpose: adding a source, sink,
or sanitizer is a data edit, not an engine edit.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import FunctionInfo, Project, dotted_name
from .rules.determinism import (
    UnseededRandom,
    WallClock,
    _ImportMap,
    _call_target,
    _is_unordered_set_expr,
)


class Lane(enum.Enum):
    """One taint dimension; each lane has its own graph and rule."""

    VALUE = "value"
    ORDER = "order"
    DTYPE = "dtype"


#: Modules whose ``os.environ`` reads are the sanctioned configuration
#: surface (flags in, behavior out -- never payload bytes).
CONFIG_MODULES: Tuple[str, ...] = (
    "repro/config.py",
    "repro/obs/__init__.py",
    "repro/resilience/faults.py",
    "repro/experiments/runner.py",
)

#: Calls whose results carry pool-completion / filesystem order.
_ORDER_SOURCE_CALLS = frozenset(
    {"as_completed", "imap_unordered", "listdir", "scandir", "glob", "iglob"}
)

#: Calls that destroy ordering nondeterminism.
_ORDER_SANITIZERS = frozenset(
    {
        "sorted",
        "min",
        "max",
        "merge_newest_wins",
        "sort",
        "argsort",
        "lexsort",
        "unique",
        "searchsorted",
    }
)

#: Calls neutral in every lane (structure, not data).
_NEUTRAL_CALLS = frozenset({"len", "isinstance", "type", "id", "hasattr"})

#: Calls producing float-valued arrays (DTYPE lane sources).
_FLOAT_SOURCE_CALLS = frozenset(
    {
        "log",
        "log2",
        "log10",
        "log1p",
        "exp",
        "expm1",
        "sqrt",
        "interp",
        "mean",
        "std",
        "var",
        "divide",
        "true_divide",
    }
)

#: Calls whose results are integral (DTYPE taint killed).
_INT_PRODUCER_CALLS = frozenset(
    {
        "searchsorted",
        "argsort",
        "argmin",
        "argmax",
        "nonzero",
        "count_nonzero",
        "arange",
        "digitize",
        "floor_divide",
        "int",
        "round",
        "bit_length",
    }
)

#: Calls that clamp a float into a known domain (DTYPE sanitizers).
_DTYPE_SANITIZERS = frozenset({"clip", "clamped_int64"})

#: Methods that mutate their receiver with their arguments.
_MUTATORS = frozenset(
    {"append", "extend", "insert", "add", "update", "appendleft", "setdefault"}
)

_INT_DTYPE_NAMES = frozenset(
    {
        "int",
        "numpy.int64",
        "numpy.int32",
        "numpy.intp",
        "numpy.uint64",
        "numpy.uint32",
        "np.int64",
        "np.int32",
        "np.intp",
        "np.uint64",
        "np.uint32",
    }
)
_INT_DTYPE_STRINGS = frozenset(
    {"int64", "int32", "intp", "uint64", "uint32", "int"}
)
_FLOAT_DTYPE_NAMES = frozenset(
    {"float", "numpy.float64", "numpy.float32", "np.float64", "np.float32"}
)
_FLOAT_DTYPE_STRINGS = frozenset({"float64", "float32"})


@dataclass(frozen=True)
class SinkSpec:
    """One payload surface: how to match it and what to call it."""

    description: str
    #: last dotted component(s) that match regardless of receiver.
    names: Tuple[str, ...] = ()
    #: (attr name, receiver regex) pairs for method-style sinks.
    attrs: Tuple[Tuple[str, str], ...] = ()


#: The determinism-lane payload surfaces (FLOW001 + FLOW002 share them).
DETERMINISM_SINKS: Tuple[SinkSpec, ...] = (
    SinkSpec(
        description="atomic payload write",
        names=("atomic_write_text", "atomic_write_json"),
    ),
    SinkSpec(
        description="metrics recording",
        attrs=(
            ("add", r"(^|\.)obs$|registry|metrics"),
            ("set_gauge", r"(^|\.)obs$|registry|metrics"),
            ("observe", r"(^|\.)obs$|registry|metrics"),
        ),
    ),
    SinkSpec(
        description="json serialization",
        attrs=(("dump", r"^json$"), ("dumps", r"^json$")),
    ),
)


@dataclass(frozen=True)
class SourceSite:
    """One occurrence of a nondeterministic (or unclamped-float) origin."""

    id: str
    lane: Lane
    description: str
    path: str
    line: int
    col: int
    func: str  # enclosing function qualname


@dataclass(frozen=True)
class SinkSite:
    """One occurrence of a payload-writing (or int-casting) call."""

    id: str
    lane: Lane
    description: str
    path: str
    line: int
    col: int
    func: str


@dataclass(frozen=True)
class RawFlowFinding:
    """A lane finding before a rule stamps its id/severity on it."""

    path: str
    line: int
    col: int
    message: str
    source_line: str


#: Origin-graph node: ("src", site_id, "") / ("param", qualname, index)
#: / ("ret", qualname, "") / ("sink", site_id, "").
Node = Tuple[str, str, str]


class _ModuleEnv:
    """Per-module import maps shared by every lane pass."""

    def __init__(self, display_path: str, tree: ast.Module):
        self.display_path = display_path
        self.numpy_random = _ImportMap(tree, "numpy", "random")
        self.stdlib_random = _ImportMap(tree, "random")
        self.time = _ImportMap(tree, "time")
        self.datetime = _ImportMap(tree, "datetime")
        self.os = _ImportMap(tree, "os")

    def in_module(self, *suffixes: str) -> bool:
        return any(self.display_path.endswith(s) for s in suffixes)


def _last_component(dotted: Optional[str]) -> str:
    if not dotted:
        return ""
    return dotted.rsplit(".", 1)[-1]


def _receiver(dotted: Optional[str]) -> str:
    if not dotted or "." not in dotted:
        return ""
    return dotted.rsplit(".", 1)[0]


def _dtype_arg_matches(node: ast.AST, names: frozenset, strings: frozenset) -> bool:
    dotted = dotted_name(node)
    if dotted in names:
        return True
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in strings
    )


def _is_environ_expr(node: ast.AST, env: _ModuleEnv) -> bool:
    """``os.environ`` (optionally subscripted) as an expression."""
    if isinstance(node, ast.Subscript):
        return _is_environ_expr(node.value, env)
    dotted = dotted_name(node)
    if dotted is None:
        return False
    parts = dotted.split(".")
    if len(parts) == 2 and parts[1] == "environ":
        return parts[0] in env.os.module_aliases
    if len(parts) == 1:
        return env.os.member_aliases.get(parts[0]) == "environ"
    return False


class FlowAnalysis:
    """Build the per-lane origin graphs and solve them for findings."""

    def __init__(self, contexts: Sequence) -> None:
        self.contexts = list(contexts)
        self.project = Project.build(
            [(ctx.display_path, ctx.tree) for ctx in self.contexts]
        )
        self._ctx_by_path = {ctx.display_path: ctx for ctx in self.contexts}
        self.envs: Dict[str, _ModuleEnv] = {}
        for table in self.project.modules.values():
            self.envs[table.name] = _ModuleEnv(table.display_path, table.tree)
        self.edges: Dict[Lane, Dict[Node, Set[Node]]] = {
            lane: {} for lane in Lane
        }
        self.sources: Dict[Lane, Dict[str, SourceSite]] = {
            lane: {} for lane in Lane
        }
        self.sinks: Dict[Lane, Dict[str, SinkSite]] = {
            lane: {} for lane in Lane
        }

    # ------------------------------------------------------------------
    # Graph construction.
    # ------------------------------------------------------------------

    def run(self) -> "FlowAnalysis":
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            env = self.envs.get(info.module)
            if env is None:
                continue
            for lane in Lane:
                _FunctionPass(self, info, env, lane).run()
        return self

    def add_edge(self, lane: Lane, src: Node, dst: Node) -> None:
        self.edges[lane].setdefault(src, set()).add(dst)

    def source_node(
        self,
        lane: Lane,
        description: str,
        node: ast.AST,
        env: _ModuleEnv,
        func: str,
    ) -> Node:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        site_id = f"{env.display_path}:{line}:{col}:{description}"
        self.sources[lane].setdefault(
            site_id,
            SourceSite(
                id=site_id,
                lane=lane,
                description=description,
                path=env.display_path,
                line=line,
                col=col,
                func=func,
            ),
        )
        return ("src", site_id, "")

    def sink_node(
        self,
        lane: Lane,
        description: str,
        node: ast.AST,
        env: _ModuleEnv,
        func: str,
    ) -> Node:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        site_id = f"{env.display_path}:{line}:{col}:{description}"
        self.sinks[lane].setdefault(
            site_id,
            SinkSite(
                id=site_id,
                lane=lane,
                description=description,
                path=env.display_path,
                line=line,
                col=col,
                func=func,
            ),
        )
        return ("sink", site_id, "")

    # ------------------------------------------------------------------
    # Solving.
    # ------------------------------------------------------------------

    def findings(self, lane: Lane) -> List[RawFlowFinding]:
        graph = self.edges[lane]
        results: List[RawFlowFinding] = []
        for source_id in sorted(self.sources[lane]):
            source = self.sources[lane][source_id]
            start: Node = ("src", source_id, "")
            parents: Dict[Node, Optional[Node]] = {start: None}
            queue: List[Node] = [start]
            while queue:
                current = queue.pop(0)
                for nxt in sorted(graph.get(current, ())):
                    if nxt not in parents:
                        parents[nxt] = current
                        queue.append(nxt)
            for sink_id in sorted(self.sinks[lane]):
                target: Node = ("sink", sink_id, "")
                if target not in parents:
                    continue
                sink = self.sinks[lane][sink_id]
                chain = self._chain(parents, target, source, sink)
                results.append(self._finding(lane, source, sink, chain))
        results.sort(key=lambda f: (f.path, f.line, f.col, f.message))
        return results

    def _chain(
        self,
        parents: Dict[Node, Optional[Node]],
        target: Node,
        source: SourceSite,
        sink: SinkSite,
    ) -> List[str]:
        nodes: List[Node] = []
        cursor: Optional[Node] = target
        while cursor is not None:
            nodes.append(cursor)
            cursor = parents.get(cursor)
        nodes.reverse()
        funcs: List[str] = [source.func]
        for kind, name, _ in nodes:
            if kind in ("param", "ret"):
                funcs.append(name)
        funcs.append(sink.func)
        deduped: List[str] = []
        for name in funcs:
            if not deduped or deduped[-1] != name:
                deduped.append(name)
        return deduped

    def _finding(
        self,
        lane: Lane,
        source: SourceSite,
        sink: SinkSite,
        chain: List[str],
    ) -> RawFlowFinding:
        path_text = " -> ".join(chain)
        if lane is Lane.VALUE:
            message = (
                f"nondeterministic value from {source.description} "
                f"({source.path}:{source.line}) reaches {sink.description} "
                f"({sink.path}:{sink.line}); call path: {path_text}. Seed "
                "the source or keep it out of payload-writing code"
            )
        elif lane is Lane.ORDER:
            message = (
                f"nondeterministic ordering from {source.description} "
                f"({source.path}:{source.line}) reaches {sink.description} "
                f"({sink.path}:{sink.line}); call path: {path_text}. Sort "
                "the collection (sorted/stable argsort/merge_newest_wins) "
                "before it shapes a payload"
            )
        else:
            message = (
                f"unclamped float value from {source.description} "
                f"({source.path}:{source.line}) reaches {sink.description} "
                f"({sink.path}:{sink.line}); call path: {path_text}. Clamp "
                "the domain first (np.clip or repro.indexes.clamped_int64) "
                "-- float->int64 overflow is undefined"
            )
        ctx = self._ctx_by_path.get(sink.path)
        source_line = ctx.source_line(sink.line) if ctx is not None else ""
        return RawFlowFinding(
            path=sink.path,
            line=sink.line,
            col=sink.col,
            message=message,
            source_line=source_line,
        )


class _FunctionPass:
    """Abstractly interpret one function body for one lane."""

    def __init__(
        self,
        analysis: FlowAnalysis,
        info: FunctionInfo,
        env: _ModuleEnv,
        lane: Lane,
    ) -> None:
        self.analysis = analysis
        self.project = analysis.project
        self.info = info
        self.env = env
        self.lane = lane
        self.vars: Dict[str, Set[Node]] = {}
        for index, name in enumerate(info.params):
            self.vars[name] = {("param", info.qualname, str(index))}

    def run(self) -> None:
        statements = [
            stmt
            for stmt in getattr(self.info.node, "body", [])
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        # Two passes: the second stabilizes loop-carried dataflow (edges
        # are additive, so this only ever adds flows, never drops them).
        for _ in range(2):
            for stmt in statements:
                self._stmt(stmt)

    # -- statements ----------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # separate dataflow scopes, analyzed on their own
        if isinstance(stmt, ast.Assign):
            origins = self._expr(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, origins)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, self._expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            origins = self._expr(stmt.value)
            key = dotted_name(stmt.target)
            if key is not None:
                merged = self.vars.get(key, set()) | origins
                self.vars[key] = merged
            else:
                self._bind_target(stmt.target, origins)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for origin in self._expr(stmt.value):
                    self.analysis.add_edge(
                        self.lane, origin, ("ret", self.info.qualname, "")
                    )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            origins = self._expr(stmt.iter)
            origins |= self._order_source_for_iter(stmt.iter)
            self._bind_target(stmt.target, origins)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                origins = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, origins)
            for inner in stmt.body:
                self._stmt(inner)
        elif isinstance(stmt, ast.Try):
            blocks = stmt.body + stmt.orelse + stmt.finalbody
            for inner in blocks:
                self._stmt(inner)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._stmt(inner)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
        # pass/break/continue/import/global/nonlocal: nothing to do.

    def _bind_target(self, target: ast.AST, origins: Set[Node]) -> None:
        if isinstance(target, ast.Name):
            self.vars[target.id] = set(origins)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, origins)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, origins)
        elif isinstance(target, ast.Attribute):
            key = dotted_name(target)
            if key is not None:
                self.vars[key] = self.vars.get(key, set()) | origins
        elif isinstance(target, ast.Subscript):
            # results[i] = x places x at a deterministic slot: the
            # container inherits value/dtype taint but not order taint.
            if self.lane is Lane.ORDER:
                return
            key = dotted_name(target.value)
            if key is not None:
                self.vars[key] = self.vars.get(key, set()) | origins

    # -- expressions ---------------------------------------------------

    def _expr(self, node: ast.AST) -> Set[Node]:
        if isinstance(node, ast.Name):
            return set(self.vars.get(node.id, ()))
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            if self.lane is Lane.VALUE and _is_environ_expr(node, self.env):
                if not self.env.in_module(*CONFIG_MODULES):
                    return {
                        self.analysis.source_node(
                            self.lane,
                            "os.environ read",
                            node,
                            self.env,
                            self.info.qualname,
                        )
                    }
                return set()
            dotted = dotted_name(node)
            if dotted is not None and dotted in self.vars:
                return set(self.vars[dotted])
            origins: Set[Node] = set()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    origins |= self._expr(child)
            return origins
        if isinstance(node, (ast.Compare, ast.BoolOp)) and (
            self.lane is Lane.DTYPE
        ):
            # Comparisons yield booleans: no float escapes through them.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
            return set()
        if isinstance(node, ast.BinOp):
            origins = self._expr(node.left) | self._expr(node.right)
            if self.lane is Lane.DTYPE and isinstance(node.op, ast.Div):
                origins.add(
                    self.analysis.source_node(
                        self.lane,
                        "true division",
                        node,
                        self.env,
                        self.info.qualname,
                    )
                )
            return origins
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            origins = set()
            for comp in node.generators:
                iter_origins = self._expr(comp.iter)
                iter_origins |= self._order_source_for_iter(comp.iter)
                self._bind_target(comp.target, iter_origins)
                for condition in comp.ifs:
                    self._expr(condition)
            if isinstance(node, ast.DictComp):
                origins |= self._expr(node.key) | self._expr(node.value)
            else:
                origins |= self._expr(node.elt)
            return origins
        if isinstance(node, ast.NamedExpr):
            origins = self._expr(node.value)
            self._bind_target(node.target, origins)
            return origins
        if isinstance(node, ast.Lambda):
            return set()
        origins = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                origins |= self._expr(child)
        return origins

    def _order_source_for_iter(self, iter_expr: ast.AST) -> Set[Node]:
        if self.lane is not Lane.ORDER:
            return set()
        if _is_unordered_set_expr(iter_expr):
            return {
                self.analysis.source_node(
                    self.lane,
                    "set iteration order",
                    iter_expr,
                    self.env,
                    self.info.qualname,
                )
            }
        return set()

    # -- calls ---------------------------------------------------------

    def _call(self, call: ast.Call) -> Set[Node]:
        dotted = dotted_name(call.func)
        last = _last_component(dotted)
        if not last and isinstance(call.func, ast.Attribute):
            # Method on a non-name receiver (``f(x).astype(...)``,
            # ``(a + b).clip(...)``): the dotted chain is unresolvable
            # but the method name still drives source/sink/sanitizer
            # matching.
            last = call.func.attr
        if last in _NEUTRAL_CALLS:
            for arg in call.args:
                self._expr(arg)
            return set()
        if self.lane is Lane.DTYPE:
            return self._call_dtype(call, dotted, last)
        return self._call_determinism(call, dotted, last)

    def _call_determinism(
        self, call: ast.Call, dotted: Optional[str], last: str
    ) -> Set[Node]:
        positional = [self._expr(arg) for arg in call.args]
        keywords = [
            (kw.arg, self._expr(kw.value)) for kw in call.keywords
        ]
        if self.lane is Lane.ORDER and last in _ORDER_SANITIZERS:
            return set()
        source = self._match_determinism_source(call, dotted, last)
        if source is not None:
            return {source}
        result: Set[Node] = set()
        resolved = (
            self.project.resolve_call(self.info, dotted)
            if dotted is not None
            else None
        )
        result |= self._callback_returns(call)
        if resolved is not None and not resolved[0].is_module_body:
            target, offset = resolved
            self._bind_call_args(target, offset, positional, keywords)
            result.add(("ret", target.qualname, ""))
        else:
            for origins in positional:
                result |= origins
            for _, origins in keywords:
                result |= origins
            if isinstance(call.func, ast.Attribute):
                result |= self._expr(call.func.value)
        self._match_sinks(call, dotted, last, positional, keywords)
        self._apply_mutation(call, dotted, last, positional, keywords)
        return result

    def _call_dtype(
        self, call: ast.Call, dotted: Optional[str], last: str
    ) -> Set[Node]:
        positional = [self._expr(arg) for arg in call.args]
        keywords = [
            (kw.arg, self._expr(kw.value)) for kw in call.keywords
        ]
        if last in _DTYPE_SANITIZERS:
            return set()
        if last in _INT_PRODUCER_CALLS:
            return set()
        if last == "astype" and isinstance(call.func, ast.Attribute):
            receiver = self._expr(call.func.value)
            if call.args and _dtype_arg_matches(
                call.args[0], _FLOAT_DTYPE_NAMES, _FLOAT_DTYPE_STRINGS
            ):
                return {
                    self.analysis.source_node(
                        self.lane,
                        "astype(float) conversion",
                        call,
                        self.env,
                        self.info.qualname,
                    )
                }
            if call.args and _dtype_arg_matches(
                call.args[0], _INT_DTYPE_NAMES, _INT_DTYPE_STRINGS
            ):
                sink = self.analysis.sink_node(
                    self.lane,
                    "float->int64 astype cast",
                    call,
                    self.env,
                    self.info.qualname,
                )
                for origin in receiver:
                    self.analysis.add_edge(self.lane, origin, sink)
                return set()
            return receiver
        if last in _FLOAT_SOURCE_CALLS:
            return {
                self.analysis.source_node(
                    self.lane,
                    f"{last}() float result",
                    call,
                    self.env,
                    self.info.qualname,
                )
            }
        result: Set[Node] = set()
        resolved = (
            self.project.resolve_call(self.info, dotted)
            if dotted is not None
            else None
        )
        result |= self._callback_returns(call)
        if resolved is not None and not resolved[0].is_module_body:
            target, offset = resolved
            self._bind_call_args(target, offset, positional, keywords)
            result.add(("ret", target.qualname, ""))
        else:
            for origins in positional:
                result |= origins
            for _, origins in keywords:
                result |= origins
            if isinstance(call.func, ast.Attribute):
                result |= self._expr(call.func.value)
        self._apply_mutation(call, dotted, last, positional, keywords)
        return result

    def _match_determinism_source(
        self, call: ast.Call, dotted: Optional[str], last: str
    ) -> Optional[Node]:
        env = self.env
        if self.lane is Lane.VALUE:
            member = _call_target(call, env.numpy_random, "random")
            if member and member not in UnseededRandom._NUMPY_ALLOWED:
                return self.analysis.source_node(
                    self.lane,
                    f"unseeded np.random.{member}",
                    call,
                    env,
                    self.info.qualname,
                )
            member = _call_target(call, env.stdlib_random)
            if member and member not in UnseededRandom._STDLIB_ALLOWED:
                return self.analysis.source_node(
                    self.lane,
                    f"unseeded random.{member}",
                    call,
                    env,
                    self.info.qualname,
                )
            if not env.in_module(*WallClock.allowed_modules):
                member = _call_target(call, env.time)
                if member in WallClock._TIME_MEMBERS:
                    return self.analysis.source_node(
                        self.lane,
                        f"wall clock time.{member}",
                        call,
                        env,
                        self.info.qualname,
                    )
                if (
                    dotted is not None
                    and last in WallClock._DATETIME_MEMBERS
                    and len(dotted.split(".")) >= 2
                ):
                    parts = dotted.split(".")
                    owner = parts[-2]
                    datetime_classes = {
                        alias
                        for alias, origin in (
                            env.datetime.member_aliases.items()
                        )
                        if origin in ("datetime", "date")
                    }
                    if owner in ("datetime", "date") and (
                        owner in datetime_classes
                        or owner in env.datetime.module_aliases
                        or (
                            len(parts) == 3
                            and parts[0] in env.datetime.module_aliases
                        )
                    ):
                        return self.analysis.source_node(
                            self.lane,
                            f"wall clock {dotted}",
                            call,
                            env,
                            self.info.qualname,
                        )
            if not env.in_module(*CONFIG_MODULES):
                member = _call_target(call, env.os)
                if member == "getenv":
                    return self.analysis.source_node(
                        self.lane,
                        "os.getenv read",
                        call,
                        env,
                        self.info.qualname,
                    )
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "get"
                    and _is_environ_expr(call.func.value, env)
                ):
                    return self.analysis.source_node(
                        self.lane,
                        "os.environ read",
                        call,
                        env,
                        self.info.qualname,
                    )
        elif self.lane is Lane.ORDER:
            if last in _ORDER_SOURCE_CALLS:
                return self.analysis.source_node(
                    self.lane,
                    f"{last}() completion/listing order",
                    call,
                    env,
                    self.info.qualname,
                )
        return None

    def _callback_returns(self, call: ast.Call) -> Set[Node]:
        """Function-valued arguments: the map_tasks(run_task, ...) shape.

        A project function passed as an argument may be invoked by the
        callee, so the call's result conservatively includes that
        function's return taint (and the callgraph records a callback
        edge for the JSON dump).
        """
        result: Set[Node] = set()
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            callback = self.project.function_argument(self.info, arg)
            if callback is not None:
                result.add(("ret", callback.qualname, ""))
        return result

    def _bind_call_args(
        self,
        target: FunctionInfo,
        offset: int,
        positional: List[Set[Node]],
        keywords: List[Tuple[Optional[str], Set[Node]]],
    ) -> None:
        for index, origins in enumerate(positional):
            param_index = index + offset
            if param_index >= len(target.params):
                break
            for origin in origins:
                self.analysis.add_edge(
                    self.lane,
                    origin,
                    ("param", target.qualname, str(param_index)),
                )
        for name, origins in keywords:
            if name is None or name not in target.params:
                continue
            param_index = target.params.index(name)
            for origin in origins:
                self.analysis.add_edge(
                    self.lane,
                    origin,
                    ("param", target.qualname, str(param_index)),
                )

    def _match_sinks(
        self,
        call: ast.Call,
        dotted: Optional[str],
        last: str,
        positional: List[Set[Node]],
        keywords: List[Tuple[Optional[str], Set[Node]]],
    ) -> None:
        for spec in DETERMINISM_SINKS:
            matched = last in spec.names
            if not matched and dotted is not None:
                receiver = _receiver(dotted)
                for attr, pattern in spec.attrs:
                    if last == attr and re.search(pattern, receiver):
                        matched = True
                        break
            if not matched:
                continue
            sink = self.analysis.sink_node(
                self.lane,
                spec.description,
                call,
                self.env,
                self.info.qualname,
            )
            for origins in positional:
                for origin in origins:
                    self.analysis.add_edge(self.lane, origin, sink)
            for _, origins in keywords:
                for origin in origins:
                    self.analysis.add_edge(self.lane, origin, sink)

    def _apply_mutation(
        self,
        call: ast.Call,
        dotted: Optional[str],
        last: str,
        positional: List[Set[Node]],
        keywords: List[Tuple[Optional[str], Set[Node]]],
    ) -> None:
        if not isinstance(call.func, ast.Attribute) or last not in _MUTATORS:
            return
        key = dotted_name(call.func.value)
        if key is None:
            return
        merged: Set[Node] = set(self.vars.get(key, ()))
        for origins in positional:
            merged |= origins
        for _, origins in keywords:
            merged |= origins
        self.vars[key] = merged


# ----------------------------------------------------------------------
# Cached entry point shared by the three flow rules.
# ----------------------------------------------------------------------


class ProjectFlows:
    """Per-lane findings for one analyzed file set."""

    def __init__(self, analysis: FlowAnalysis):
        self.analysis = analysis
        self.findings: Dict[Lane, List[RawFlowFinding]] = {
            lane: analysis.findings(lane) for lane in Lane
        }


_CACHE: List[Tuple[Tuple, ProjectFlows]] = []
_CACHE_LIMIT = 8


def compute_flows(contexts: Sequence) -> ProjectFlows:
    """Analyze a file set once; FLOW001/FLOW002/NP002 share the result.

    The engine instantiates each rule fresh per run and every flow rule
    sees the same files, so a tiny content-keyed cache collapses the
    three ``finish_run`` calls into one interprocedural analysis.
    """
    key = tuple(
        sorted(
            (ctx.display_path, len(ctx.source), hash(ctx.source))
            for ctx in contexts
        )
    )
    for cached_key, cached in _CACHE:
        if cached_key == key:
            return cached
    flows = ProjectFlows(FlowAnalysis(contexts).run())
    _CACHE.append((key, flows))
    if len(_CACHE) > _CACHE_LIMIT:
        del _CACHE[0]
    return flows


def lane_findings(contexts: Sequence, lane: Lane) -> Iterable[RawFlowFinding]:
    """The lane's findings for a file set (cached across rules)."""
    return compute_flows(contexts).findings[lane]
