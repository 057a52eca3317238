"""The analysis framework: findings, rule registry, contexts, suppressions.

Deliberately small — a :class:`Finding` record, a :class:`Rule` base class
with a registry, a parsed-module context, and a driver that runs every rule
over every module and then gives cross-module rules one ``finalize`` pass
over the whole project.  Everything is stdlib ``ast``; no third-party
dependency may creep in here.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "all_rules",
    "analyze_project",
    "analyze_source",
    "analyze_sources",
    "default_target",
    "iter_python_files",
    "load_project",
    "register_rule",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line.

    ``message`` states the broken contract in one sentence; the rule id plus
    ``path`` and ``message`` (not the line number, which moves under
    unrelated edits) form the baseline fingerprint — see
    :mod:`repro.analysis.baseline`.
    """

    rule: str
    path: str
    line: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline file."""
        import hashlib

        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.message}".encode("utf-8")
        )
        return digest.hexdigest()[:16]


#: ``# repro: ignore`` / ``# repro: ignore[rule-a, rule-b]`` on the finding's
#: line suppresses it (bare ``ignore`` suppresses every rule on that line).
_SUPPRESSION = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")


def suppressed_rules(line_text: str) -> Optional[frozenset]:
    """The rules an inline comment suppresses on ``line_text``.

    Returns ``None`` when there is no suppression, the empty frozenset for a
    bare ``# repro: ignore`` (= all rules), and the named set otherwise.
    """
    match = _SUPPRESSION.search(line_text)
    if match is None:
        return None
    names = match.group("rules")
    if names is None:
        return frozenset()
    return frozenset(part.strip() for part in names.split(",") if part.strip())


@dataclass
class ModuleContext:
    """One parsed source module as the rules see it."""

    module: str  #: dotted module name, e.g. ``repro.exec.pool``
    path: str  #: path used in findings (repo-relative when possible)
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


@dataclass
class ProjectContext:
    """Every parsed module, for rules that cross module boundaries."""

    modules: Dict[str, ModuleContext] = field(default_factory=dict)

    def get(self, module: str) -> Optional[ModuleContext]:
        return self.modules.get(module)

    def __iter__(self) -> Iterator[ModuleContext]:
        return iter(self.modules.values())


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`id` (kebab-case, stable — it is the suppression
    and baseline key) and :attr:`contract` (the one-line statement of the
    invariant, surfaced by ``analyze --list-rules`` and the README table),
    and override :meth:`check_module` and/or :meth:`finalize`.
    """

    id: str = ""
    contract: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        """Cross-module pass, run once after every module was visited."""
        return ()

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            message=message,
        )


_RULE_REGISTRY: List[Type[Rule]] = []


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default rule set."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} must define a stable id")
    if any(existing.id == cls.id for existing in _RULE_REGISTRY):
        raise ValueError(f"rule id {cls.id!r} is already registered")
    _RULE_REGISTRY.append(cls)
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule (import triggers registration)."""
    import repro.analysis.rules  # noqa: F401  (registers on import)

    return [cls() for cls in _RULE_REGISTRY]


# ------------------------------------------------------------------- loading


def iter_python_files(root: str) -> Iterator[str]:
    """Yield every ``.py`` file under ``root`` (or ``root`` itself), sorted."""
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in ("__pycache__", ".git")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def module_name_for(path: str) -> str:
    """Dotted module name derived from ``path`` (anchored at ``repro``)."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return parts[-1] if parts else ""
    return ".".join(parts[anchor:])


def default_target() -> str:
    """The package source tree, wherever this install keeps it."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _display_path(path: str) -> str:
    """Repo-relative path when the file is under the working tree."""
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute.startswith(cwd + os.sep):
        return os.path.relpath(absolute, cwd)
    return absolute


def load_project(paths: Sequence[str]) -> Tuple[ProjectContext, List[Finding]]:
    """Parse every python file under ``paths`` into a :class:`ProjectContext`.

    Files that fail to parse become ``parse-error`` findings instead of
    aborting the run (a syntax error must fail the gate, not crash it).
    """
    project = ProjectContext()
    errors: List[Finding] = []
    for root in paths:
        for file_path in iter_python_files(root):
            try:
                with open(file_path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=file_path)
            except (OSError, SyntaxError, ValueError) as error:
                errors.append(
                    Finding(
                        rule="parse-error",
                        path=_display_path(file_path),
                        line=getattr(error, "lineno", 1) or 1,
                        message=f"cannot analyze file: {error}",
                    )
                )
                continue
            ctx = ModuleContext(
                module=module_name_for(file_path),
                path=_display_path(file_path),
                source=source,
                tree=tree,
            )
            project.modules[ctx.module] = ctx
    return project, errors


# ------------------------------------------------------------------- running


def _apply_suppressions(
    findings: Iterable[Finding], project: ProjectContext
) -> List[Finding]:
    by_path: Dict[str, ModuleContext] = {ctx.path: ctx for ctx in project}
    kept: List[Finding] = []
    for finding in findings:
        ctx = by_path.get(finding.path)
        if ctx is not None:
            rules = suppressed_rules(ctx.line_text(finding.line))
            if rules is not None and (not rules or finding.rule in rules):
                continue
        kept.append(finding)
    return kept


def analyze_project(
    project: ProjectContext,
    rules: Optional[Sequence[Rule]] = None,
    parse_errors: Sequence[Finding] = (),
) -> List[Finding]:
    """Run ``rules`` (default: all registered) over ``project``.

    Inline suppressions are applied; findings come back sorted by path, line
    and rule so output (and the JSON artifact) is deterministic.
    """
    active = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = list(parse_errors)
    for ctx in project:
        for rule in active:
            findings.extend(rule.check_module(ctx))
    for rule in active:
        findings.extend(rule.finalize(project))
    findings = _apply_suppressions(findings, project)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def analyze_sources(
    sources: Dict[str, str], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Analyze in-memory ``{module_name: source}`` snippets (rule tests)."""
    project = ProjectContext()
    errors: List[Finding] = []
    for module, source in sources.items():
        path = module.replace(".", "/") + ".py"
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            errors.append(
                Finding(
                    rule="parse-error",
                    path=path,
                    line=error.lineno or 1,
                    message=f"cannot analyze file: {error}",
                )
            )
            continue
        project.modules[module] = ModuleContext(
            module=module, path=path, source=source, tree=tree
        )
    return analyze_project(project, rules=rules, parse_errors=errors)


def analyze_source(
    source: str,
    module: str = "repro.example",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze one in-memory snippet as module ``module``."""
    return analyze_sources({module: source}, rules=rules)
