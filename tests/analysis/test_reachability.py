"""Every ``src/`` definition is reached from something that runs.

A transitive name scan over ``src/repro``: module-level code is live, as
are the names that ``perfbench/*.py`` and ``examples/*.py`` mention and
the lint rules that ``@register`` installs.  A function, class or
method is live once its name appears in live code (and, for a method,
its class is live); its body then names further definitions, up to a
fixpoint.  Re-exports do not count: the imports of a package
``__init__`` and every ``__all__`` list name a definition without
running it.

What is left is the dead set.  It must equal :data:`ALLOWED_DEAD`, the
handful of accessors that tests use to read the state of live code
(and a few names that open ROADMAP items replace), each with its
reason.  A new definition that nothing reaches fails the test, and so
does an allowlisted name that gains a caller (drop it from the list).
"""

from __future__ import annotations

import ast
import glob
import os
import textwrap
from typing import Dict, Iterable, List, Set, Tuple

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC_PACKAGE = os.path.join(REPO_ROOT, "src", "repro")
ROOT_FILE_GLOBS = ("perfbench/*.py", "examples/*.py")

_CACHE_STATE = "cache/TLB tests read the replay models' state through it"

#: Dead definitions that stay, keyed ``module:qualname``.
ALLOWED_DEAD: Dict[str, str] = {
    "repro.analysis.baseline:Baseline.unjustified": (
        "the self-lint test holds the committed baseline to its todo policy"
    ),
    "repro.data.column:Column.rank_of": (
        "column and index tests check ranks against a searchsorted oracle"
    ),
    "repro.data.column:MaterializedColumn.rank_of": "see Column.rank_of",
    "repro.data.column:VirtualSortedColumn.rank_of": "see Column.rank_of",
    "repro.data.relation:Relation.address_of": (
        "relation tests check placement addresses"
    ),
    "repro.experiments.cache:is_enabled": (
        "session-cache tests check the cache switch"
    ),
    "repro.hardware.counters:PerfCounters.l1_hit_rate": (
        "counter tests check the derived rates"
    ),
    "repro.hardware.counters:PerfCounters.l2_hit_rate": (
        "counter tests check the derived rates"
    ),
    "repro.hardware.fastlru:VectorLruCache.access": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruCache.contains": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruCache.hit_rate": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruCache.occupancy": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruCache.resident_lines": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruTlb.access": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruTlb.access_sequence": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruTlb.contains": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruTlb.miss_rate": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruTlb.occupancy": _CACHE_STATE,
    "repro.hardware.fastlru:VectorLruTlb.resident_pages": _CACHE_STATE,
    "repro.hardware.fastlru:VectorSetAssociativeCache.access": _CACHE_STATE,
    "repro.hardware.fastlru:VectorSetAssociativeCache.access_sequence": (
        _CACHE_STATE
    ),
    "repro.hardware.fastlru:VectorSetAssociativeCache.contains": _CACHE_STATE,
    "repro.hardware.fastlru:VectorSetAssociativeCache.hit_rate": _CACHE_STATE,
    "repro.hardware.fastlru:VectorSetAssociativeCache.occupancy": _CACHE_STATE,
    "repro.hardware.fastlru:VectorSetAssociativeCache.resident_lines": (
        _CACHE_STATE
    ),
    "repro.hardware.memory:Allocation.address_of": (
        "memory tests check allocation addresses"
    ),
    "repro.hardware.memory:Allocation.contains": (
        "memory tests check allocation bounds"
    ),
    "repro.hardware.memory:SystemMemory.find": (
        "memory tests look allocations up by address"
    ),
    "repro.hardware.memory:SystemMemory.used": (
        "memory tests check capacity accounting"
    ),
    "repro.hardware.spec:GpuSpec.max_resident_threads": (
        "ROADMAP item 3 replaces it with the wave width"
    ),
    "repro.hardware.spec:GpuSpec.max_resident_warps": (
        "ROADMAP item 3 replaces it with the wave width"
    ),
    "repro.hardware.spec:SystemSpec.with_huge_pages": (
        "the page-size ablation (A9) and spec tests build machines with it"
    ),
    "repro.obs.metrics:MetricsRegistry.phase_counter": (
        "obs tests read per-phase attribution through it"
    ),
    "repro.obs.tracing:Tracer.finished_spans": (
        "obs tests read recorded spans through it"
    ),
    "repro.obs:configure_from_env": (
        "fast-path tests re-read REPRO_TRACE through it"
    ),
    "repro.obs:disable": "obs fixtures switch tracing off between tests",
    "repro.perf.analytic:uniform_lru_misses": (
        "ROADMAP item 2's characteristic-time estimator replaces it"
    ),
    "repro.serve.batcher:ShardBatcher.pending_tuples": (
        "batcher tests read each shard's open window"
    ),
    "repro.serve.batcher:WindowOperator.process": (
        "property tests use it as the reference for push and flush"
    ),
}


def _names(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every identifier the nodes mention, imports and ``__all__`` aside."""
    found: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``getattr(obj, "name")`` and name tables reach a definition
            # through a string.
            if node.value.isidentifier():
                found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _is_registered(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "register"
        for d in node.decorator_list
    )


def _implicit(name: str) -> bool:
    """Methods the runtime calls without naming them: dunders and
    ``ast.NodeVisitor`` dispatch."""
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or name.startswith("visit_")


class _Definition:
    def __init__(self, key: str, name: str, node: ast.AST, parent: str):
        self.key = key
        self.name = name
        self.node = node
        self.parent = parent  # the enclosing class's key, or ""


def _module_name(path: str, src_package: str) -> str:
    rel = os.path.relpath(path, os.path.dirname(src_package))
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _collect(
    path: str, module: str
) -> Tuple[List[_Definition], Set[str]]:
    """A module's definitions and the names its module-level code uses."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    definitions: List[_Definition] = []
    roots: Set[str] = set()

    def visit_class(node: ast.ClassDef, prefix: str, key: str) -> None:
        for item in node.body:
            if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child = f"{prefix}.{item.name}"
                definitions.append(
                    _Definition(f"{module}:{child}", item.name, item, key)
                )
                if isinstance(item, ast.ClassDef):
                    visit_class(item, child, f"{module}:{child}")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definitions.append(
                _Definition(f"{module}:{node.name}", node.name, node, "")
            )
        elif isinstance(node, ast.ClassDef):
            key = f"{module}:{node.name}"
            definitions.append(_Definition(key, node.name, node, ""))
            visit_class(node, node.name, key)
            if _is_registered(node):
                roots.add(node.name)
        else:
            roots |= _names([node])
    return definitions, roots


def _own_names(definition: _Definition) -> Set[str]:
    """Names the definition runs: a class's body minus its methods."""
    node = definition.node
    if isinstance(node, ast.ClassDef):
        parts: List[ast.AST] = list(node.bases) + list(node.keywords)
        parts += list(node.decorator_list)
        parts += [
            item
            for item in node.body
            if not isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        return _names(parts)
    return _names([node])


def dead_definitions(
    src_package: str = SRC_PACKAGE, root_files: Iterable[str] = ()
) -> Set[str]:
    """Keys of the definitions under ``src_package`` that nothing reaches."""
    definitions: List[_Definition] = []
    live_names: Set[str] = set()
    for path in sorted(
        glob.glob(os.path.join(src_package, "**", "*.py"), recursive=True)
    ):
        found, roots = _collect(path, _module_name(path, src_package))
        definitions += found
        live_names |= roots
    for path in root_files:
        with open(path, encoding="utf-8") as handle:
            live_names |= _names([ast.parse(handle.read(), filename=path)])
    live: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition.key in live:
                continue
            if definition.parent and definition.parent not in live:
                continue
            if definition.name in live_names or (
                definition.parent and _implicit(definition.name)
            ):
                live.add(definition.key)
                live_names |= _own_names(definition)
                changed = True
    return {d.key for d in definitions} - live


def _root_files() -> List[str]:
    paths: List[str] = []
    for pattern in ROOT_FILE_GLOBS:
        paths += sorted(glob.glob(os.path.join(REPO_ROOT, pattern)))
    return paths


def test_dead_set_is_the_allowlist():
    dead = dead_definitions(root_files=_root_files())
    unexpected = sorted(dead - set(ALLOWED_DEAD))
    revived = sorted(set(ALLOWED_DEAD) - dead)
    assert not unexpected, (
        "src/ definitions that no figure, CLI, perfbench workload or "
        "example reaches (give each a src/ caller or delete it, with "
        "its tests):\n  " + "\n  ".join(unexpected)
    )
    assert not revived, (
        "allowlisted names that now have a src/ caller (drop them from "
        "ALLOWED_DEAD):\n  " + "\n  ".join(revived)
    )


def _package(tmp_path, files: Dict[str, str]) -> str:
    root = tmp_path / "repro"
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return str(root)


def test_scan_follows_names_from_module_code(tmp_path):
    package = _package(
        tmp_path,
        {
            "__init__.py": """
                from .core import orphan, used

                __all__ = ["orphan", "used"]
            """,
            "core.py": """
                def used():
                    return Helper().run()

                class Helper:
                    def __init__(self):
                        self.value = 1

                    def run(self):
                        return getattr(self, "by_string")()

                    def by_string(self):
                        return self.value

                    def never_called(self):
                        return 0

                def orphan():
                    return used()

                RESULT = used()
            """,
        },
    )
    # The re-export and ``__all__`` do not revive ``orphan``; a method
    # of a live class stays dead until something names it.
    assert dead_definitions(package) == {
        "repro.core:orphan",
        "repro.core:Helper.never_called",
    }


def test_registered_rules_and_root_files_are_live(tmp_path):
    package = _package(
        tmp_path,
        {
            "rules.py": """
                def register(cls):
                    return cls

                @register
                class Rule:
                    def visit_Call(self, node):
                        return node

                class Unregistered:
                    def visit_Call(self, node):
                        return node

                def only_an_example_calls_this():
                    return 1
            """,
        },
    )
    example = tmp_path / "example.py"
    example.write_text("print(only_an_example_calls_this())\n")
    assert dead_definitions(package) == {
        "repro.rules:Unregistered",
        "repro.rules:Unregistered.visit_Call",
        "repro.rules:only_an_example_calls_this",
    }
    assert dead_definitions(package, [str(example)]) == {
        "repro.rules:Unregistered",
        "repro.rules:Unregistered.visit_Call",
    }
