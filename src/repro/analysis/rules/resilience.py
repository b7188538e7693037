"""RES001: durable artifacts must go through the atomic write helper.

A truncate-then-write ``open(path, "w")`` that dies mid-write leaves a
torn file: a half-written ``metrics.json`` fails the CI drift gate with
a parse error instead of a clean diff, and a torn figure export looks
like a bad run.  :func:`repro.ioutil.atomic_write_text` (tmp file in
the same directory, flush+fsync, ``os.replace``) makes every durable
write all-or-nothing.

Flagged: ``open``/``io.open`` with a ``"w"``/``"x"`` mode and
``Path.write_text``/``write_bytes``.  Append-mode opens pass: an append
never truncates what is already on disk.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..engine import FileContext, Rule, dotted_name, register
from ..findings import Finding, Severity


def _write_mode(call: ast.Call) -> Optional[str]:
    """The constant mode string of an ``open``-style call, if any."""
    mode_node: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    else:
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode_node = keyword.value
                break
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


@register
class NonAtomicDurableWrite(Rule):
    """RES001: truncating writes outside :mod:`repro.ioutil`."""

    rule_id = "RES001"
    severity = Severity.ERROR
    summary = (
        "truncating file write (open 'w', Path.write_text) bypassing "
        "repro.ioutil.atomic_write_text"
    )

    #: The helper's home implements the pattern once.
    allowed_modules = ("repro/ioutil.py",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_module(*self.allowed_modules):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in ("open", "io.open"):
                mode = _write_mode(node)
                if mode is not None and ("w" in mode or "x" in mode):
                    yield ctx.finding(
                        self,
                        node,
                        f"open(..., {mode!r}) tears the file on a crash "
                        "mid-write; use repro.ioutil.atomic_write_text / "
                        "atomic_write_json",
                    )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"Path.{node.func.attr} truncates in place; use "
                    "repro.ioutil.atomic_write_text for durable artifacts",
                )
