"""Thread-safety: shared session state is written under a lock, or not at all.

Several caller threads may drive one session, and ``DatabasePreparation`` /
``ClauseCompiler`` / ``TermInterner`` instances are shared across folds and
prediction sessions.  On today's GIL these races
mostly lose updates silently; on free-threaded Python they corrupt dicts.
The invariant: for the configured shared classes, any write to ``self``
state outside ``__init__`` must be lock-guarded or appear in the per-class
method allowlist (with a comment in ``config.toml`` saying *why* the method
is single-threaded by contract).

**TS01** flags, inside classes named in the rule's ``classes`` list:

* attribute rebinds — ``self.attr = ...``, ``self.attr += ...``,
  ``del self.attr``;
* container writes through an attribute — ``self.attr[key] = ...``,
  ``del self.attr[key]``;

when they occur outside the configured init methods, outside any
``with self.<lock>`` block (a lock is an attribute whose name is in
``lock_names`` or contains ``"lock"``), and outside allowlisted methods.

Writes to nested attributes (``self._local.checker = ...``) are not
flagged: thread-local and other deliberately per-thread carriers are the
sanctioned pattern for unshared state.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from ..config import RuleConfig
from . import register
from .base import ModuleContext, RawViolation, Rule

__all__ = ["SharedStateWrites"]


def _is_self_attribute(node: ast.expr) -> str | None:
    """``self.attr`` -> ``"attr"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_expr(node: ast.expr, lock_names: tuple[str, ...]) -> bool:
    """``self.<lock>`` or ``self.<lock>.acquire()``-style context expressions."""
    attr = _is_self_attribute(node)
    if attr is None and isinstance(node, ast.Call):
        attr = _is_self_attribute(node.func) if isinstance(node.func, ast.Attribute) else None
        if attr is None and isinstance(node.func, ast.Attribute):
            attr = _is_self_attribute(node.func.value)
    if attr is None:
        return False
    return attr in lock_names or "lock" in attr.lower()


class _MethodScanner:
    """Finds unguarded self-writes in one method body."""

    def __init__(self, lock_names: tuple[str, ...]) -> None:
        self.lock_names = lock_names
        self.findings: list[tuple[ast.AST, str]] = []

    def scan(self, method: ast.FunctionDef | ast.AsyncFunctionDef) -> list[tuple[ast.AST, str]]:
        for statement in method.body:
            self._visit(statement, guarded=False)
        return self.findings

    # ------------------------------------------------------------------ #
    def _visit(self, node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            return  # nested scopes are not `self` methods of this class
        if isinstance(node, (ast.With, ast.AsyncWith)):
            now_guarded = guarded or any(
                _is_lock_expr(item.context_expr, self.lock_names) for item in node.items
            )
            for child in node.body:
                self._visit(child, now_guarded)
            return
        if not guarded:
            self._check_statement(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child, guarded)

    def _check_statement(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._check_target(node, target, "assignment")
        elif isinstance(node, ast.AugAssign):
            self._check_target(node, node.target, "assignment")
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:  # a bare annotation is not a write
                self._check_target(node, node.target, "assignment")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._check_target(node, target, "deletion")

    def _check_target(self, statement: ast.AST, target: ast.expr, kind: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(statement, element, kind)
            return
        attr = _is_self_attribute(target)
        if attr is not None:
            self.findings.append(
                (statement, f"unguarded {kind} to shared attribute self.{attr}")
            )
            return
        if isinstance(target, ast.Subscript):
            attr = _is_self_attribute(target.value)
            if attr is not None:
                self.findings.append(
                    (statement, f"unguarded {kind} into shared container self.{attr}[...]")
                )


@register
class SharedStateWrites(Rule):
    id = "TS01"
    name = "shared-state-writes"
    description = (
        "Writes to shared session/engine/cache state outside __init__ must be "
        "lock-guarded or explicitly allowlisted per class in config.toml."
    )

    def check(self, module: ModuleContext, config: RuleConfig) -> Iterator[RawViolation]:
        classes = set(config.option("classes", []))
        if not classes:
            return
        lock_names = tuple(config.option("lock_names", ["_lock"]))
        init_methods = set(config.option("init_methods", ["__init__", "__post_init__"]))
        allow: Mapping[str, list[str]] = config.option("allow", {})
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in classes:
                continue
            allowed = set(allow.get(node.name, []))
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in init_methods or method.name in allowed:
                    continue
                for statement, message in _MethodScanner(lock_names).scan(method):
                    yield self.violation(
                        statement,
                        f"{node.name}.{method.name}: {message} (shared across threads/sessions; "
                        "guard with a lock or allowlist the method in config.toml)",
                    )
