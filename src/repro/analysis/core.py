"""Framework for ``reprolint``: rule registry, suppressions, reporters.

Two rule shapes exist:

* :class:`Rule` -- runs per source file against its AST (most rules);
* :class:`ProjectRule` -- runs once over the whole file set (cross-file
  invariants such as batch-dispatch parity).

A finding on line *N* is silenced by a suppression comment **on that
line**::

    self._fh.flush()  # reprolint: ok[blocking-async] -- durability barrier, see PR 6

The reason string after ``--`` is mandatory: a suppression without one
is itself reported (rule id ``bare-suppression``).  This keeps every
deliberate violation documented at the point of violation.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

__all__ = [
    "Finding",
    "Rule",
    "ProjectRule",
    "SourceFile",
    "register_rule",
    "all_rules",
    "iter_python_files",
    "run_analysis",
    "render_text",
    "render_json",
]

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ok\[([A-Za-z0-9_,\s-]+)\]((?:\s*--\s*)(?P<reason>.*))?"
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    rule_id: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"


@dataclass(slots=True)
class Suppression:
    rule_ids: frozenset[str]
    reason: str
    line: int

    def covers(self, rule_id: str) -> bool:
        return rule_id in self.rule_ids or "*" in self.rule_ids


@dataclass(slots=True)
class SourceFile:
    """A parsed source file plus its suppression table."""

    path: str
    text: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str | Path, text: str | None = None) -> "SourceFile":
        p = Path(path)
        if text is None:
            text = p.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(p))
        src = cls(path=str(p), text=text, tree=tree)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            m = _SUPPRESS_RE.search(raw)
            if m is None:
                continue
            ids = frozenset(part.strip() for part in m.group(1).split(",") if part.strip())
            reason = (m.group("reason") or "").strip()
            src.suppressions[lineno] = Suppression(rule_ids=ids, reason=reason, line=lineno)
        return src

    def suppressed(self, rule_id: str, line: int) -> bool:
        sup = self.suppressions.get(line)
        return sup is not None and sup.covers(rule_id)


class Rule(Protocol):
    """Per-file rule: inspect one parsed source file."""

    rule_id: str
    description: str

    def check(self, source: SourceFile) -> list[Finding]: ...


class ProjectRule(Protocol):
    """Whole-project rule: inspect the complete file set at once."""

    rule_id: str
    description: str

    def check_project(self, sources: list[SourceFile]) -> list[Finding]: ...


_RULES: dict[str, Rule | ProjectRule] = {}


def register_rule(rule_cls: type) -> type:
    """Class decorator registering a rule instance under its ``rule_id``."""
    instance = rule_cls()
    rule_id = instance.rule_id
    if rule_id in _RULES:
        raise ValueError(f"duplicate reprolint rule id: {rule_id!r}")
    _RULES[rule_id] = instance
    return rule_cls


def all_rules() -> dict[str, Rule | ProjectRule]:
    return dict(_RULES)


_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "build", "dist", ".mypy_cache"}


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_file() and p.suffix == ".py":
            yield p
        elif p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub


def _check_bare_suppressions(source: SourceFile) -> list[Finding]:
    out = []
    for sup in source.suppressions.values():
        if not sup.reason:
            out.append(
                Finding(
                    rule_id="bare-suppression",
                    path=source.path,
                    line=sup.line,
                    message=(
                        "suppression without a reason; write "
                        "'# reprolint: ok[rule-id] -- why this is deliberate'"
                    ),
                )
            )
    return out


def run_analysis(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
    rules: dict[str, Rule | ProjectRule] | None = None,
) -> list[Finding]:
    """Run every registered rule over ``paths``; return unsuppressed findings.

    ``select`` restricts to a subset of rule ids (bare-suppression checks
    always run).  Files that fail to parse produce a ``syntax-error``
    finding rather than aborting the run.
    """
    active = rules if rules is not None else all_rules()
    if select is not None:
        wanted = set(select)
        active = {rid: r for rid, r in active.items() if rid in wanted}

    sources: list[SourceFile] = []
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            src = SourceFile.parse(path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule_id="syntax-error",
                    path=str(path),
                    line=exc.lineno or 1,
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        sources.append(src)
        findings.extend(_check_bare_suppressions(src))

    by_path = {s.path: s for s in sources}
    raw: list[Finding] = []
    for rule in active.values():
        if hasattr(rule, "check_project"):
            raw.extend(rule.check_project(sources))
        else:
            for src in sources:
                raw.extend(rule.check(src))

    for f in raw:
        src = by_path.get(f.path)
        if src is not None and src.suppressed(f.rule_id, f.line):
            continue
        findings.append(f)

    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings


def render_text(findings: list[Finding]) -> str:
    if not findings:
        return "reprolint: clean"
    lines = [f.render() for f in findings]
    lines.append(f"reprolint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    payload = {
        "findings": [
            {"rule": f.rule_id, "path": f.path, "line": f.line, "message": f.message}
            for f in findings
        ],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


RuleFn = Callable[[SourceFile], list[Finding]]
