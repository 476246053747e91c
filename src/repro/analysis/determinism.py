"""Determinism lint (DET rules).

The determinism contract — ``workers=1`` bit-for-bit equal to
``workers=N``, cache-on equal to cache-off, restart equal to
uninterrupted — only holds if the deterministic-path modules
(:data:`~repro.analysis.core.DETERMINISTIC_MODULES`) never consult
wall clocks, ambient RNG state, or hash-order-dependent iteration for
anything that feeds results.  These rules ban the sources at review
time; the fuzz batteries remain the runtime backstop.

DET001  wall-clock read (``time.time``, ``datetime.now``, ...) in a
        deterministic-path module.
DET002  module-level ``random`` function (``random.randint`` etc.) in a
        deterministic-path module — only seeded ``random.Random``
        instances are allowed.
DET003  entropy source (``os.urandom``, ``uuid.uuid*``, ``secrets.*``)
        outside the auth allowlist.
DET004  iteration over a set/frozenset that feeds ordered output in a
        deterministic-path module without an explicit ``sorted()``.
DET005  unseeded ``random.Random()`` (no seed argument) anywhere.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.core import (AnalysisContext, ENTROPY_ALLOWED_MODULES,
                                 Finding, ModuleInfo, Rule, call_name,
                                 dotted_name, is_self_attr, register_rule)

#: Call targets that read the wall clock.  ``time.perf_counter`` /
#: ``time.monotonic`` are sanctioned for telemetry (timings are excluded
#: from the determinism contract).
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
}

ENTROPY_CALLS = {
    "os.urandom", "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
    "secrets.token_hex", "secrets.token_bytes", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.choice", "secrets.randbelow",
}

#: ``random.<name>`` attributes that are fine: the seeded-instance
#: constructor and the system-RNG class (never used on deterministic
#: paths, but referencing the name is not a draw).
RANDOM_MODULE_ALLOWED = {"Random", "SystemRandom"}

#: Call targets whose result does not depend on iteration order, so a
#: set flowing into them is safe.
ORDER_INSENSITIVE_SINKS = {
    "sorted", "len", "sum", "min", "max", "any", "all", "set",
    "frozenset", "Counter", "collections.Counter", "iter",
}


def _in_deterministic(module: ModuleInfo) -> bool:
    return module.is_deterministic_path


@register_rule
class WallClockRule(Rule):
    code = "DET001"
    summary = ("wall-clock read in a deterministic-path module "
               "(use time.perf_counter for telemetry)")

    def check_module(self, module, context):
        if not _in_deterministic(module):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in WALL_CLOCK_CALLS:
                    findings.append(Finding(
                        self.code, module.path, node.lineno,
                        node.col_offset,
                        f"wall-clock read `{name}()` on a deterministic "
                        "path; timings may only come from "
                        "time.perf_counter/monotonic telemetry"))
        return findings


@register_rule
class ModuleRandomRule(Rule):
    code = "DET002"
    summary = ("module-level `random` use in a deterministic-path module "
               "(only seeded random.Random instances)")

    def check_module(self, module, context):
        if not _in_deterministic(module):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if (name is not None and name.startswith("random.")
                        and name.split(".")[1]
                        not in RANDOM_MODULE_ALLOWED):
                    findings.append(Finding(
                        self.code, module.path, node.lineno,
                        node.col_offset,
                        f"`{name}()` draws from the process-global RNG; "
                        "thread a seeded random.Random through instead"))
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "random":
                bad = [alias.name for alias in node.names
                       if alias.name not in RANDOM_MODULE_ALLOWED]
                if bad:
                    findings.append(Finding(
                        self.code, module.path, node.lineno,
                        node.col_offset,
                        f"importing {', '.join(bad)} from `random` pulls "
                        "in process-global RNG state; import "
                        "random.Random and seed it"))
        return findings


@register_rule
class EntropyRule(Rule):
    code = "DET003"
    summary = "entropy source outside the auth allowlist"

    def check_module(self, module, context):
        if module.matches(ENTROPY_ALLOWED_MODULES):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in ENTROPY_CALLS:
                    findings.append(Finding(
                        self.code, module.path, node.lineno,
                        node.col_offset,
                        f"`{name}()` draws real entropy; only the "
                        "service auth/job-id path may "
                        "(repro/harness/service.py)"))
        return findings


@register_rule
class UnseededRandomRule(Rule):
    code = "DET005"
    summary = "unseeded random.Random() — pass an explicit seed"

    def check_module(self, module, context):
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in ("random.Random", "Random") and not node.args:
                    findings.append(Finding(
                        self.code, module.path, node.lineno,
                        node.col_offset,
                        "random.Random() with no seed falls back to OS "
                        "entropy; derive the seed from the campaign seed"))
        return findings


# ----------------------------------------------------------------------
# DET004: unsorted set iteration feeding ordered output


class _SetTracker(ast.NodeVisitor):
    """Best-effort, scope-local inference of which names hold sets.

    Tracks: set literals/constructors/comprehensions, annotated
    names/arguments (``x: set[int]``), ``self._x`` attributes assigned a
    set anywhere in the class, results of set-returning methods
    (``.union`` etc. on a known set), and set operators (``a | b``).
    Deliberately conservative — only *definite* sets are reported, so a
    DET004 finding is close to certain.
    """

    SET_METHODS: ClassVar[frozenset[str]] = frozenset(
        {"union", "intersection", "difference", "symmetric_difference",
         "copy"})

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.set_attrs: set[str] = set()

    @staticmethod
    def _is_set_annotation(annotation: ast.AST | None) -> bool:
        if annotation is None:
            return False
        text = ast.unparse(annotation)
        base = text.split("[", 1)[0].strip()
        return base in ("set", "frozenset", "Set", "FrozenSet",
                        "typing.Set", "typing.FrozenSet",
                        "AbstractSet", "MutableSet")

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self.SET_METHODS \
                    and self.is_set_expr(node.func.value):
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute) and is_self_attr(node):
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) \
                and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                         ast.BitXor)):
            return self.is_set_expr(node.left) \
                or self.is_set_expr(node.right)
        return False

    # -- collection passes ---------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
                elif is_self_attr(target):
                    self.set_attrs.add(target.attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._is_set_annotation(node.annotation):
            if isinstance(node.target, ast.Name):
                self.set_names.add(node.target.id)
            elif is_self_attr(node.target):
                self.set_attrs.add(node.target.attr)
        elif node.value is not None and self.is_set_expr(node.value):
            if isinstance(node.target, ast.Name):
                self.set_names.add(node.target.id)
            elif is_self_attr(node.target):
                self.set_attrs.add(node.target.attr)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if self._is_set_annotation(node.annotation):
            self.set_names.add(node.arg)
        self.generic_visit(node)


#: Constructors that materialize iteration order into an ordered value.
ORDERED_CONSTRUCTORS = {"tuple", "list"}


@register_rule
class SetIterationRule(Rule):
    code = "DET004"
    summary = ("unsorted set iteration feeding ordered output in a "
               "deterministic-path module")

    def check_module(self, module, context):
        if not _in_deterministic(module):
            return []
        findings: list[Finding] = []
        tracker = _SetTracker()
        tracker.visit(module.tree)

        def flag(node: ast.AST, what: str) -> None:
            findings.append(Finding(
                self.code, module.path, node.lineno, node.col_offset,
                f"{what} iterates a set in hash order; wrap the set in "
                "sorted() (or consume it order-insensitively)"))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                # tuple(s) / list(s) — materialized hash order.
                if name in ORDERED_CONSTRUCTORS and node.args \
                        and tracker.is_set_expr(node.args[0]):
                    flag(node, f"`{name}(...)` of a set")
                # "sep".join(s)
                elif (isinstance(node.func, ast.Attribute)
                      and node.func.attr == "join" and node.args
                      and tracker.is_set_expr(node.args[0])):
                    flag(node, "`.join(...)` of a set")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                # An ordered comprehension directly over a set.  Set and
                # dict comprehensions are order-insensitive and allowed;
                # a generator feeding sorted()/sum()/... is handled by
                # the parent Call check below.
                for comp in node.generators:
                    if tracker.is_set_expr(comp.iter):
                        flag(node, "ordered comprehension")
            elif (isinstance(node, ast.For)
                    and tracker.is_set_expr(node.iter)):
                flag(node, "`for` loop")
        # Order-insensitive consumers: drop findings whose node sits
        # directly inside sorted()/sum()/min()/set()/... calls.
        allowed_spans = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) \
                    and call_name(node) in ORDER_INSENSITIVE_SINKS:
                for arg in node.args:
                    allowed_spans.append((arg.lineno, arg.col_offset))
            elif isinstance(node, (ast.SetComp, ast.DictComp)):
                for comp in node.generators:
                    allowed_spans.append((comp.iter.lineno,
                                          comp.iter.col_offset))
        return [finding for finding in findings
                if (finding.line, finding.column) not in allowed_spans]
