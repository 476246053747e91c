"""Wire-safety lint (WIRE rules).

The wire codec (:mod:`repro.harness.codec`) is only a security
boundary while its type universe stays *closed*: every class that
crosses the coordinator/worker wire must be a frozen dataclass (or
enum), registered, and listed — field by field — in the codec's
``WIRE_FIELDS`` manifest.  These rules keep that universe honest
statically, so drift is a lint failure rather than a
``CodecError`` in production (or worse, a silently widened attack
surface).

WIRE001  a manifest-listed wire dataclass is not ``frozen=True``.
WIRE002  ``pickle.loads``/``pickle.load``/``pickle.Unpickler`` outside
         the allowlisted modules (``PICKLE_ALLOWED_MODULES``).
WIRE003  manifest drift: a wire dataclass's declared fields differ from
         its ``WIRE_FIELDS`` entry.
WIRE004  a dataclass/enum reachable from ``ChunkTask``/``ChunkOutcome``
         field annotations is missing from the manifest.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import (AnalysisContext, CODEC_MODULE,
                                 PICKLE_ALLOWED_MODULES, Finding,
                                 ModuleInfo, Rule, call_name,
                                 dataclass_info, register_rule)

#: Frame roots: everything reachable from these through field
#: annotations must be in the manifest.
WIRE_ROOTS = ("ChunkTask", "ChunkOutcome")

#: Builtin/typing tokens that appear in annotations but are not classes
#: the codec needs to know about.
_ANNOTATION_NOISE = {
    "None", "bool", "int", "float", "str", "bytes", "tuple", "list",
    "dict", "set", "frozenset", "object", "Optional", "Union", "Any",
    "Tuple", "List", "Dict", "Set", "FrozenSet", "Sequence", "Mapping",
    "Iterable", "Callable", "ClassVar", "typing",
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

PICKLE_LOAD_CALLS = {"pickle.loads", "pickle.load", "pickle.Unpickler",
                     "loads", "cPickle.loads", "cPickle.load"}


class WireManifest:
    """The codec's static manifest, parsed from its AST.

    ``fields`` maps class name to its declared field tuple, ``enums``
    and ``hooks`` are the enum/hook-class name sets.  Parsed purely
    syntactically so fixture trees carrying their own
    ``repro/harness/codec.py`` classify identically to the real one.
    """

    def __init__(self) -> None:
        self.fields: dict[str, tuple[str, ...]] = {}
        self.enums: set[str] = set()
        self.hooks: set[str] = set()
        self.opaque: set[str] = set()
        self.lines: dict[str, int] = {}
        self.module: ModuleInfo | None = None

    @property
    def registered(self) -> set[str]:
        return set(self.fields) | self.enums | self.hooks


def _literal_strings(node: ast.AST) -> list[str]:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [element.value for element in node.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)]
    return []


def parse_manifest(context: AnalysisContext) -> WireManifest | None:
    """Extract ``WIRE_FIELDS``/``WIRE_ENUMS``/``WIRE_HOOKS`` from the
    codec module in the analyzed set; ``None`` if the set has none."""
    module = context.by_relpath.get(CODEC_MODULE)
    if module is None:
        return None
    manifest = WireManifest()
    manifest.module = module
    for node in module.tree.body:
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets = [target.id for target in node.targets
                       if isinstance(target, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            targets = [node.target.id]
            value = node.value
        if value is None:
            continue
        if "WIRE_FIELDS" in targets and isinstance(value, ast.Dict):
            for key, entry in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    manifest.fields[key.value] = tuple(
                        _literal_strings(entry))
                    manifest.lines[key.value] = key.lineno
        elif "WIRE_ENUMS" in targets:
            manifest.enums.update(_literal_strings(value))
        elif "WIRE_HOOKS" in targets:
            manifest.hooks.update(_literal_strings(value))
        elif "WIRE_OPAQUE" in targets:
            manifest.opaque.update(_literal_strings(value))
    if not manifest.registered:
        return None
    return manifest


def _resolved_fields(name: str,
                     context: AnalysisContext) -> tuple[str, ...] | None:
    """Dataclass fields of *name* including inherited ones (base fields
    first, matching ``dataclasses.fields`` order); ``None`` if *name*
    is not an analyzable dataclass."""
    located = context.classes.get(name)
    if located is None:
        return None
    module, node = located
    info = dataclass_info(module, node)
    if info is None or info.is_enum:
        return None
    inherited: list[str] = []
    for base in info.bases:
        base_fields = _resolved_fields(base.split(".")[-1], context)
        if base_fields:
            inherited.extend(base_fields)
    merged = list(inherited)
    for field in info.fields:
        if field not in merged:
            merged.append(field)
    return tuple(merged)


@register_rule
class FrozenWireRule(Rule):
    code = "WIRE001"
    summary = "registered wire dataclass is not frozen"

    def check_context(self, context):
        manifest = parse_manifest(context)
        if manifest is None:
            return []
        findings = []
        for name in sorted(manifest.fields):
            if name in manifest.hooks:
                continue
            located = context.classes.get(name)
            if located is None:
                continue
            module, node = located
            info = dataclass_info(module, node)
            if info is None or info.is_enum:
                continue
            if not info.frozen:
                findings.append(Finding(
                    self.code, module.path, node.lineno, node.col_offset,
                    f"wire dataclass {name} must be @dataclass("
                    "frozen=True): instances cross trust boundaries and "
                    "are folded deterministically"))
        return findings


@register_rule
class PickleRule(Rule):
    code = "WIRE002"
    summary = "pickle.loads outside the allowlisted modules"

    def check_module(self, module, context):
        if module.matches(PICKLE_ALLOWED_MODULES):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in PICKLE_LOAD_CALLS:
                    findings.append(Finding(
                        self.code, module.path, node.lineno,
                        node.col_offset,
                        f"`{name}()` deserializes arbitrary bytes; only "
                        "the allowlisted modules may unpickle "
                        "(use repro.harness.codec elsewhere)"))
        return findings


@register_rule
class ManifestDriftRule(Rule):
    code = "WIRE003"
    summary = "wire dataclass fields drifted from the WIRE_FIELDS manifest"

    def check_context(self, context):
        manifest = parse_manifest(context)
        if manifest is None:
            return []
        findings = []
        for name in sorted(manifest.fields):
            if name in manifest.hooks:
                continue
            declared = _resolved_fields(name, context)
            if declared is None:
                continue
            listed = manifest.fields[name]
            if declared != listed:
                missing = [field for field in declared
                           if field not in listed]
                stale = [field for field in listed
                         if field not in declared]
                parts = []
                if missing:
                    parts.append("missing from manifest: "
                                 + ", ".join(missing))
                if stale:
                    parts.append("stale in manifest: " + ", ".join(stale))
                if not parts:
                    parts.append(f"field order differs (class: "
                                 f"{', '.join(declared)})")
                module, node = context.classes[name]
                findings.append(Finding(
                    self.code, module.path, node.lineno, node.col_offset,
                    f"{name} drifted from codec WIRE_FIELDS — "
                    + "; ".join(parts)
                    + " — update the manifest and bump the frame "
                    "compatibility notes"))
        return findings


@register_rule
class ReachabilityRule(Rule):
    code = "WIRE004"
    summary = ("dataclass reachable from the frame roots but missing "
               "from the wire manifest")

    def check_context(self, context):
        manifest = parse_manifest(context)
        if manifest is None:
            return []
        findings = []
        visited: set[str] = set()
        queue = [root for root in WIRE_ROOTS if root in context.classes]
        while queue:
            name = queue.pop()
            if name in visited:
                continue
            visited.add(name)
            if name in manifest.opaque:
                # Sanctioned opaque-payload root: its graph crosses the
                # wire as pickled bytes inside a registered envelope
                # (e.g. ChunkPayload), never as codec-encoded fields.
                continue
            located = context.classes.get(name)
            if located is None:
                continue
            module, node = located
            info = dataclass_info(module, node)
            if info is None:
                continue
            if name not in manifest.registered:
                findings.append(Finding(
                    self.code, module.path, node.lineno, node.col_offset,
                    f"{name} is reachable from the frame roots "
                    f"({'/'.join(WIRE_ROOTS)}) but is not in the codec "
                    "manifest — register it (WIRE_FIELDS/WIRE_ENUMS) or "
                    "carry it as opaque bytes"))
            referenced: set[str] = set()
            for annotation in info.annotations.values():
                for token in _IDENT_RE.findall(annotation):
                    if token not in _ANNOTATION_NOISE:
                        referenced.add(token)
            for base in info.bases:
                referenced.add(base.split(".")[-1])
            queue.extend(sorted(
                token for token in referenced
                if token in context.classes and token not in visited))
        findings.sort(key=lambda f: (f.path, f.line))
        return findings
