"""Registry exhaustiveness: message slots and batch dispatch.

Three rules keep the hand-maintained message/automata registries honest
(the wire codec needs none: it is derived from each message's
declaration, see :mod:`repro.runtime.codec`):

``registry-slots`` (syntactic, per file)
    Every ``class X(Message)`` must be slotted -- either
    ``@dataclass(..., slots=True)`` or an explicit ``__slots__``.
    Messages are allocated millions of times per run; an accidental
    ``__dict__`` per instance is a silent 3x memory regression and lets
    typo'd attributes pass unnoticed.

``batch-parity`` (dynamic, whole project)
    For every concrete ``ObjectAutomaton``,
    :func:`repro.automata.base.resolve_batch_handler` must not silently
    discard a specialized ``handle_batch``: a subclass that overrides
    ``on_message`` below the fast path either opts back in with
    ``_on_message_batch_compatible = True`` or acknowledges the generic
    fallback with a suppression on its ``class`` line.

``batch-dispatch`` (syntactic, per file)
    Direct ``x.handle_batch(...)`` calls outside ``automata/base.py``
    bypass the consistency guard; dispatch must go through
    ``resolve_batch_handler``.

The dynamic rule anchors findings at the ``class`` statement of the
offending type, so line suppressions work exactly as for AST rules.
It silently skips when the analyzed file set does not contain the
live package sources (fixture runs in tests).
"""

from __future__ import annotations

import ast
import gc
import inspect
import sys
from pathlib import Path
from typing import Any, Callable, Iterable

from .core import Finding, SourceFile, register_rule

__all__ = [
    "RegistrySlotsRule",
    "BatchParityRule",
    "BatchDispatchRule",
    "batch_parity_findings",
]


def _dataclass_has_slots(deco: ast.expr) -> bool | None:
    """True/False if ``deco`` is a dataclass decorator with/without
    ``slots=True``; None if it is not a dataclass decorator."""
    name: str | None = None
    call = deco if isinstance(deco, ast.Call) else None
    target = deco.func if call is not None else deco
    if isinstance(target, ast.Name):
        name = target.id
    elif isinstance(target, ast.Attribute):
        name = target.attr
    if name != "dataclass":
        return None
    if call is None:
        return False
    for kw in call.keywords:
        if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


def _has_explicit_slots(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                return True
        if isinstance(node, ast.AnnAssign):
            t = node.target
            if isinstance(t, ast.Name) and t.id == "__slots__":
                return True
    return False


def _base_names(cls: ast.ClassDef) -> set[str]:
    out = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            out.add(base.id)
        elif isinstance(base, ast.Attribute):
            out.add(base.attr)
    return out


@register_rule
class RegistrySlotsRule:
    rule_id = "registry-slots"
    description = "Message subclass without __slots__"

    def check(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "Message" not in _base_names(node):
                continue
            slot_states = [_dataclass_has_slots(d) for d in node.decorator_list]
            dataclass_slots = [s for s in slot_states if s is not None]
            slotted = (dataclass_slots and all(dataclass_slots)) or _has_explicit_slots(node)
            if not slotted:
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        path=source.path,
                        line=node.lineno,
                        message=f"message class '{node.name}' is not slotted; "
                        "use @dataclass(frozen=True, slots=True) or declare __slots__",
                    )
                )
        return findings


@register_rule
class BatchDispatchRule:
    rule_id = "batch-dispatch"
    description = "direct handle_batch call bypassing resolve_batch_handler"

    def check(self, source: SourceFile) -> list[Finding]:
        if source.path.replace("\\", "/").endswith("automata/base.py"):
            return []
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "handle_batch"
            ):
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        path=source.path,
                        line=node.lineno,
                        message="call resolve_batch_handler(automaton) instead of "
                        "automaton.handle_batch directly: a subclass overriding "
                        "on_message below the fast path would be silently bypassed",
                    )
                )
        return findings


# --------------------------------------------------------------------------
# Dynamic rule: runs against the live package.


def _is_canonical(cls: type) -> bool:
    """dataclass(slots=True) replaces the class object, but the pre-slots
    original stays reachable forever through the ``__class__`` cells of
    its own methods.  The canonical class is the one its defining module
    still points to."""
    mod = sys.modules.get(cls.__module__)
    if mod is None:
        return False
    obj: Any = mod
    for part in cls.__qualname__.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is cls


def _live_subclasses(root: type) -> set[type]:
    gc.collect()  # drop unreferenced pre-slots duplicates cheaply
    out: set[type] = set()
    stack = list(root.__subclasses__())
    seen: set[type] = set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if _is_canonical(cls):
            out.add(cls)
        stack.extend(cls.__subclasses__())
    return out


def _locate(cls: type) -> tuple[Path, int] | None:
    try:
        path = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return None
    if path is None:
        return None
    return Path(path).resolve(), line


class _ProjectAnchors:
    """Maps live classes back onto the analyzed file set."""

    def __init__(self, sources: list[SourceFile]):
        self._by_abs = {Path(s.path).resolve(): s.path for s in sources}

    def anchor(self, cls: type) -> tuple[str, int] | None:
        loc = _locate(cls)
        if loc is None:
            return None
        abs_path, line = loc
        rel = self._by_abs.get(abs_path)
        if rel is None:
            return None  # defined outside the analyzed set (e.g. fixtures)
        return rel, line


def batch_parity_findings(
    rule_id: str,
    automata: Iterable[type],
    base_cls: type,
    anchor: Callable[[type], tuple[str, int] | None],
) -> list[Finding]:
    findings: list[Finding] = []
    for cls in sorted(set(automata), key=lambda c: c.__name__):
        if inspect.isabstract(cls):
            continue
        mro = cls.__mro__
        hb_owner = next((c for c in mro if "handle_batch" in c.__dict__), None)
        om_owner = next((c for c in mro if "on_message" in c.__dict__), None)
        if hb_owner is None or om_owner is None or hb_owner is base_cls:
            continue  # generic loop: always consistent with on_message
        if mro.index(om_owner) >= mro.index(hb_owner):
            continue  # fast path declared at/below the on_message override
        if om_owner.__dict__.get("_on_message_batch_compatible", False):
            continue  # explicit opt-in
        at = anchor(om_owner) or anchor(cls)
        if at is None:
            continue
        findings.append(
            Finding(
                rule_id=rule_id,
                path=at[0],
                line=at[1],
                message=(
                    f"'{om_owner.__name__}.on_message' overrides below the "
                    f"specialized '{hb_owner.__name__}.handle_batch', so "
                    "resolve_batch_handler silently falls back to the generic "
                    "loop; set _on_message_batch_compatible = True if the "
                    "override is batch-safe, or suppress here if the fallback "
                    "is the point"
                ),
            )
        )
    return findings


def _load_live_package() -> Any:
    """Import repro + every submodule; return ``repro.automata.base`` or
    None when the live package is unavailable."""
    try:
        import importlib
        import pkgutil

        import repro

        for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if ".analysis" in mod.name or mod.name.endswith("__main__"):
                continue
            try:
                importlib.import_module(mod.name)
            except Exception:
                continue  # a module failing to import is not this rule's finding
        from repro.automata import base

        return base
    except Exception:
        return None


@register_rule
class BatchParityRule:
    rule_id = "batch-parity"
    description = "on_message override must not silently drop a batch fast path"

    def check_project(self, sources: list[SourceFile]) -> list[Finding]:
        base = _load_live_package()
        if base is None:
            return []
        anchors = _ProjectAnchors(sources)
        return batch_parity_findings(
            self.rule_id,
            _live_subclasses(base.ObjectAutomaton),
            base.ObjectAutomaton,
            anchors.anchor,
        )
