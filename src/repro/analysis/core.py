"""Analyzer engine: module loading, rule registry, pragma suppression.

The suite is a set of AST-based rules over a *file set* (normally
``src/repro``).  Each rule inspects one :class:`ModuleInfo` at a time
(cross-module rules receive the whole :class:`AnalysisContext`), emits
:class:`Finding` objects, and the engine applies ``# repro: allow[CODE]``
suppression pragmas before reporting.

Module classification (which files count as deterministic-path, which
may unpickle, ...) keys off the module's *relative* path — the portion
starting at the ``repro`` package directory — so fixture trees in tests
classify exactly like the real tree.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
from dataclasses import dataclass, field

#: Paths (relative, ``repro/...``) whose code must be bit-for-bit
#: deterministic for a fixed seed: the simulator, the checker, the
#: generator/GP core, the trace bridge, the litmus corpus, and the
#: chunk fold paths of the parallel harness.  Telemetry timing via
#: ``time.perf_counter``/``time.monotonic`` is sanctioned (excluded
#: from the determinism contract); wall-clock reads are not.
DETERMINISTIC_MODULES = (
    "repro/consistency/*",
    "repro/core/*",
    "repro/sim/*",
    "repro/sim/*/*",
    "repro/bridge/*",
    "repro/litmus/*",
    "repro/harness/parallel.py",
)

#: Modules allowed to call ``pickle.loads``: the local pool's IPC and the
#: worker that resumes a checkpoint (``parallel.py``) and the service
#: store reading back its own rows (``store.py``), as documented in
#: docs/service.md.  Everything else — the service above all, which
#: reads sockets — must go through the wire codec (or carry opaque
#: bytes).
PICKLE_ALLOWED_MODULES = (
    "repro/harness/parallel.py",
    "repro/harness/store.py",
)

#: Modules allowed to draw real entropy (``os.urandom``, ``uuid``,
#: ``secrets``): the auth handshake and job-id minting of the service.
ENTROPY_ALLOWED_MODULES = (
    "repro/harness/service.py",
)

#: Classes whose mutable state must carry a ``@guarded_by`` declaration
#: (rule LOCK003) — the invariant set only grows, except when a listed
#: class is deleted outright.
REQUIRED_GUARDED_CLASSES = {
    "ChunkScheduler": "repro/harness/parallel.py",
    "VerificationService": "repro/harness/service.py",
    "SweepStore": "repro/harness/store.py",
    "VerdictCache": "repro/consistency/memo.py",
}

#: Relative path of the codec module holding the wire-field manifest.
CODEC_MODULE = "repro/harness/codec.py"

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_*,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # path as given to the analyzer (for display)
    line: int
    column: int
    message: str
    suppressed: bool = False

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule} " \
               f"{self.message}"


class ModuleInfo:
    """One parsed source file plus its pragma map and classification."""

    def __init__(self, path: str, source: str,
                 relpath: str | None = None) -> None:
        self.path = path
        self.source = source
        self.relpath = relpath if relpath is not None else module_relpath(
            path)
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        #: line number -> set of rule codes allowed on that line.
        self.pragmas: dict[int, set[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match:
                codes = {code.strip() for code in match.group(1).split(",")
                         if code.strip()}
                self.pragmas[number] = codes

    def matches(self, patterns) -> bool:
        return any(fnmatch.fnmatch(self.relpath, pattern)
                   for pattern in patterns)

    @property
    def is_deterministic_path(self) -> bool:
        return self.matches(DETERMINISTIC_MODULES)

    def allowed(self, rule: str, line: int) -> bool:
        """Is *rule* suppressed at *line* (same line or the line above)?"""
        for number in (line, line - 1):
            codes = self.pragmas.get(number)
            if codes and (rule in codes or "*" in codes):
                return True
        return False


def module_relpath(path: str) -> str:
    """The path from the ``repro`` package directory down, if any.

    ``/repo/src/repro/core/engine.py`` and
    ``/tmp/fixtures/repro/core/engine.py`` both map to
    ``repro/core/engine.py``, so fixture trees classify identically to
    the real tree.  A path with no ``repro`` component maps to its
    basename (and so matches no deterministic/allowlist pattern).
    """
    parts = os.path.normpath(path).split(os.sep)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1]


class AnalysisContext:
    """The whole analyzed file set, indexed for cross-module rules."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.by_relpath: dict[str, ModuleInfo] = {}
        for module in modules:
            self.by_relpath[module.relpath] = module
        #: class name -> (module, ClassDef) over the whole file set.
        #: First definition wins; the tree has no duplicate class names
        #: among wire/guarded types (checked by tests).
        self.classes: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) \
                        and node.name not in self.classes:
                    self.classes[node.name] = (module, node)


class Rule:
    """Base rule: subclasses set ``code``/``summary`` and implement one
    of ``check_module`` (per-file) or ``check_context`` (whole set)."""

    code = "RULE000"
    summary = ""

    def check_module(self, module: ModuleInfo,
                     context: AnalysisContext) -> list[Finding]:
        return []

    def check_context(self, context: AnalysisContext) -> list[Finding]:
        return []


_RULES: list[Rule] = []


def register_rule(rule_cls: type) -> type:
    _RULES.append(rule_cls())
    return rule_cls


def all_rules() -> list[Rule]:
    # Import for side effects: each rule module registers its rules.
    from repro.analysis import determinism, locks, wire  # noqa: F401

    return list(_RULES)


def collect_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    name for name in dirs
                    if name not in ("__pycache__", ".git"))
                files.extend(os.path.join(root, name)
                             for name in sorted(names)
                             if name.endswith(".py"))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise ValueError(f"not a python file or directory: {path}")
    seen = set()
    unique = []
    for name in files:
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return unique


def load_modules(files: list[str]) -> list[ModuleInfo]:
    modules = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            source = handle.read()
        modules.append(ModuleInfo(name, source))
    return modules


def run_analysis(paths: list[str], select: set[str] | None = None,
                 include_suppressed: bool = False) -> list[Finding]:
    """Run every (selected) rule over *paths*; returns findings sorted
    by path, line, rule.  Suppressed findings are dropped unless
    ``include_suppressed`` (they then carry ``suppressed=True``)."""
    context = AnalysisContext(load_modules(collect_files(paths)))
    rules = [rule for rule in all_rules()
             if select is None or rule.code in select]
    findings: list[Finding] = []
    for rule in rules:
        for module in context.modules:
            findings.extend(rule.check_module(module, context))
        findings.extend(rule.check_context(context))
    resolved: list[Finding] = []
    for finding in findings:
        module = context.by_relpath.get(module_relpath(finding.path))
        if module is not None and module.allowed(finding.rule,
                                                 finding.line):
            if include_suppressed:
                resolved.append(Finding(
                    rule=finding.rule, path=finding.path,
                    line=finding.line, column=finding.column,
                    message=finding.message, suppressed=True))
            continue
        resolved.append(finding)
    resolved.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return resolved


# ----------------------------------------------------------------------
# Shared AST helpers


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call target: ``time.time`` / ``sorted`` / None."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and (attr is None or node.attr == attr))


def decorator_call(node: ast.AST, name: str) -> ast.Call | None:
    """The decorator as a Call if it is ``name(...)`` (dotted ok)."""
    if isinstance(node, ast.Call):
        target = dotted_name(node.func)
        if target is not None and target.split(".")[-1] == name:
            return node
    return None


def str_args(call: ast.Call) -> list[str]:
    values = []
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            values.append(arg.value)
    return values


@dataclass
class DataclassInfo:
    """A dataclass definition: its decorator flags and declared fields."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    frozen: bool
    fields: tuple[str, ...]
    bases: tuple[str, ...] = ()
    is_enum: bool = False
    annotations: dict[str, str] = field(default_factory=dict)


def dataclass_info(module: ModuleInfo,
                   node: ast.ClassDef) -> DataclassInfo | None:
    """Parse *node* as a dataclass (or Enum); ``None`` for plain classes."""
    bases = tuple(name for name in (dotted_name(base)
                                    for base in node.bases)
                  if name is not None)
    is_enum = any(base.split(".")[-1] in ("Enum", "IntEnum", "Flag")
                  for base in bases)
    frozen = False
    is_dataclass = False
    for decorator in node.decorator_list:
        target = dotted_name(decorator if not isinstance(decorator, ast.Call)
                             else decorator.func)
        if target is not None and target.split(".")[-1] == "dataclass":
            is_dataclass = True
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if keyword.arg == "frozen" \
                            and isinstance(keyword.value, ast.Constant):
                        frozen = bool(keyword.value.value)
    if not is_dataclass and not is_enum:
        return None
    fields = []
    annotations = {}
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) \
                and isinstance(statement.target, ast.Name):
            annotation = ast.unparse(statement.annotation)
            if annotation.startswith("ClassVar"):
                continue
            fields.append(statement.target.id)
            annotations[statement.target.id] = annotation
    return DataclassInfo(name=node.name, module=module, node=node,
                         frozen=frozen, fields=tuple(fields), bases=bases,
                         is_enum=is_enum, annotations=annotations)
