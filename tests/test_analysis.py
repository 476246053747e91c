"""Fixture battery for the repro-lint static analyzer.

Every rule family gets true-positive fixtures (the rule fires at the
expected site), allowlist negatives (sanctioned modules stay clean) and
pragma-suppression checks; the CLI and the report emitters are
exercised end to end.  Fixture files are written under a ``repro/...``
relative path inside ``tmp_path`` so module classification matches the
real tree (see :func:`repro.analysis.core.module_relpath`).
"""

from __future__ import annotations

import itertools
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.core import all_rules, module_relpath, run_analysis
from repro.analysis.report import render_sarif

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ALL_CODES = {
    "DET001", "DET002", "DET003", "DET004", "DET005",
    "WIRE001", "WIRE002", "WIRE003", "WIRE004",
    "LOCK001", "LOCK002", "LOCK003",
}


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source).lstrip("\n"),
                          encoding="utf-8")
    return root


_TREE_IDS = itertools.count()


def analyze(tmp_path, files, select=None, include_suppressed=False):
    # A fresh subdirectory per call: one test may analyze several
    # fixture trees and earlier files must not leak into later runs.
    root = write_tree(tmp_path / f"tree{next(_TREE_IDS)}", files)
    return run_analysis([str(root)], select=select,
                        include_suppressed=include_suppressed)


def codes(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# Engine plumbing


class TestEngine:
    def test_rule_catalog_is_complete_and_unique(self):
        rule_codes = [rule.code for rule in all_rules()]
        assert len(rule_codes) == len(set(rule_codes))
        assert ALL_CODES <= set(rule_codes)

    def test_module_relpath_strips_to_package(self):
        assert module_relpath("/x/src/repro/core/a.py") == "repro/core/a.py"
        assert module_relpath("repro/sim/b.py") == "repro/sim/b.py"
        # Rightmost `repro` component wins, so fixture trees that
        # themselves live under a repro checkout classify correctly.
        assert module_relpath("/src/repro/fix/repro/core/c.py") \
            == "repro/core/c.py"
        assert module_relpath("/tmp/scratch.py") == "scratch.py"

    def test_repo_tree_is_clean(self):
        # The acceptance bar: the analyzer passes repo-wide.  Any new
        # violation in src/repro fails here before it fails in CI.
        findings = run_analysis([str(REPO_SRC)])
        assert findings == [], "\n".join(f.format() for f in findings)


# ----------------------------------------------------------------------
# Determinism rules


class TestDeterminismRules:
    def test_det001_wall_clock_on_deterministic_path(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/core/clock.py": """
                import time


                def stamp():
                    return time.time()
            """,
        }, select={"DET001"})
        assert codes(findings) == ["DET001"]
        assert findings[0].line == 5
        assert "time.time" in findings[0].message

    def test_det001_perf_counter_sanctioned(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/core/clock.py": """
                import time


                def tick():
                    return time.perf_counter() - time.monotonic()
            """,
        }, select={"DET001"})
        assert findings == []

    def test_det001_ignores_non_deterministic_modules(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/harness/service.py": """
                import time


                def stamp():
                    return time.time()
            """,
        }, select={"DET001"})
        assert findings == []

    def test_det002_module_level_random(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/sim/gen.py": """
                import random
                from random import shuffle


                def draw():
                    return random.randint(0, 7)
            """,
        }, select={"DET002"})
        assert codes(findings) == ["DET002", "DET002"]
        assert findings[0].line == 2  # the `from random import shuffle`

    def test_det002_seeded_instances_allowed(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/sim/gen.py": """
                import random
                from random import Random


                def draw(seed):
                    rng = random.Random(seed)
                    return rng.randint(0, 7)
            """,
        }, select={"DET002"})
        assert findings == []

    def test_det003_entropy_outside_allowlist(self, tmp_path):
        files = {
            "repro/core/ids.py": """
                import os


                def token():
                    return os.urandom(8)
            """,
        }
        assert codes(analyze(tmp_path, files,
                             select={"DET003"})) == ["DET003"]
        # The same code in the service auth module is sanctioned.
        sanctioned = {"repro/harness/service.py":
                      files["repro/core/ids.py"]}
        assert analyze(tmp_path, sanctioned, select={"DET003"}) == []

    def test_det004_ordered_consumers_of_sets(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/core/order.py": """
                values = {3, 1, 2}
                ordered = list(values)
                joined = ",".join(values)
                squares = [v * v for v in values]
                for v in values:
                    print(v)
            """,
        }, select={"DET004"})
        assert codes(findings) == ["DET004"] * 4
        assert [finding.line for finding in findings] == [2, 3, 4, 5]

    def test_det004_order_insensitive_consumers_allowed(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/core/order.py": """
                values = {3, 1, 2}
                ranked = sorted(values)
                total = sum(v * 2 for v in values)
                doubled = {v * 2 for v in values}
                for v in sorted(values):
                    print(v)
            """,
        }, select={"DET004"})
        assert findings == []

    def test_det005_unseeded_random_anywhere(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/harness/seeds.py": """
                import random

                rng = random.Random()
                good = random.Random(42)
            """,
        }, select={"DET005"})
        assert codes(findings) == ["DET005"]
        assert findings[0].line == 3


# ----------------------------------------------------------------------
# Wire-safety rules

WIRE_CODEC = """
    WIRE_FIELDS = {
        "ChunkTask": ("chunk_id", "payload", "colour"),
        "ChunkPayload": ("blob",),
    }
    WIRE_ENUMS = ("Colour",)
    WIRE_HOOKS = ()
    WIRE_OPAQUE = ("Checkpoint",)
"""

WIRE_FRAMES = """
    from dataclasses import dataclass
    from enum import Enum


    class Colour(Enum):
        RED = 1


    @dataclass(frozen=True)
    class ChunkPayload:
        blob: bytes


    @dataclass(frozen=True)
    class ChunkTask:
        chunk_id: int
        payload: ChunkPayload
        colour: Colour
"""


def wire_fixture(**overrides):
    files = {"repro/harness/codec.py": WIRE_CODEC,
             "repro/harness/frames.py": WIRE_FRAMES}
    files.update(overrides)
    return files


class TestWireRules:
    def test_clean_manifest_has_no_findings(self, tmp_path):
        assert analyze(tmp_path, wire_fixture(),
                       select={"WIRE001", "WIRE003", "WIRE004"}) == []

    def test_wire001_unfrozen_wire_dataclass(self, tmp_path):
        frames = WIRE_FRAMES.replace(
            "@dataclass(frozen=True)\n    class ChunkPayload",
            "@dataclass\n    class ChunkPayload")
        findings = analyze(
            tmp_path, wire_fixture(**{"repro/harness/frames.py": frames}),
            select={"WIRE001"})
        assert codes(findings) == ["WIRE001"]
        assert "ChunkPayload" in findings[0].message

    def test_wire002_pickle_outside_trusted_transport(self, tmp_path):
        source = """
            import pickle


            def thaw(blob):
                return pickle.loads(blob)
        """
        findings = analyze(tmp_path, {"repro/core/thaw.py": source},
                           select={"WIRE002"})
        assert codes(findings) == ["WIRE002"]
        # The service reads sockets: it must never unpickle.
        findings = analyze(tmp_path, {"repro/harness/service.py": source},
                           select={"WIRE002"})
        assert codes(findings) == ["WIRE002"]
        for trusted in ("repro/harness/parallel.py", "repro/harness/store.py"):
            assert analyze(tmp_path, {trusted: source},
                           select={"WIRE002"}) == []

    def test_wire003_manifest_drift(self, tmp_path):
        frames = WIRE_FRAMES.replace(
            "blob: bytes", "blob: bytes\n        extra: int")
        findings = analyze(
            tmp_path, wire_fixture(**{"repro/harness/frames.py": frames}),
            select={"WIRE003"})
        assert codes(findings) == ["WIRE003"]
        assert "missing from manifest: extra" in findings[0].message

    def test_wire003_stale_manifest_entry(self, tmp_path):
        codec = WIRE_CODEC.replace('("blob",)', '("blob", "ghost")')
        findings = analyze(
            tmp_path, wire_fixture(**{"repro/harness/codec.py": codec}),
            select={"WIRE003"})
        assert codes(findings) == ["WIRE003"]
        assert "stale in manifest: ghost" in findings[0].message

    def test_wire004_reachable_unregistered_dataclass(self, tmp_path):
        frames = WIRE_FRAMES + """

    @dataclass(frozen=True)
    class Budget:
        limit: int


    @dataclass(frozen=True)
    class ChunkExtra(ChunkTask):
        budget: Budget
"""
        # ChunkTask -> (subclassed manifest drift aside) Budget is
        # reachable through the new root field and unregistered.
        frames = frames.replace(
            "colour: Colour", "colour: Colour\n        budget: Budget")
        findings = analyze(
            tmp_path, wire_fixture(**{"repro/harness/frames.py": frames}),
            select={"WIRE004"})
        assert "WIRE004" in codes(findings)
        assert any("Budget" in finding.message for finding in findings)

    def test_wire004_stops_at_opaque_roots(self, tmp_path):
        frames = WIRE_FRAMES.replace(
            "colour: Colour",
            "colour: Colour\n        checkpoint: Checkpoint") + """

    @dataclass(frozen=True)
    class Inner:
        value: int


    @dataclass(frozen=True)
    class Checkpoint:
        inner: Inner
"""
        # Checkpoint is in WIRE_OPAQUE: neither it nor anything behind
        # it (Inner) needs manifest registration.
        findings = analyze(
            tmp_path, wire_fixture(**{"repro/harness/frames.py": frames}),
            select={"WIRE004"})
        assert findings == []


# ----------------------------------------------------------------------
# Lock-discipline rules

LOCK_WIDGET = """
    from repro.locking import TracedLock, guarded_by, requires_lock


    @guarded_by("_lock", "_queue")
    class Widget:
        def __init__(self):
            self._lock = TracedLock("widget")
            self._queue = []

        def bad(self):
            return len(self._queue)

        def good(self):
            with self._lock:
                return len(self._queue)

        @requires_lock("_lock")
        def helper(self):
            return self._queue
"""


class TestLockRules:
    def test_lock001_access_outside_lock(self, tmp_path):
        findings = analyze(tmp_path,
                           {"repro/harness/widget.py": LOCK_WIDGET},
                           select={"LOCK001"})
        assert codes(findings) == ["LOCK001"]
        assert findings[0].line == 11  # the body of bad()
        assert "_queue" in findings[0].message
        assert "bad()" in findings[0].message

    def test_lock001_inherited_guard_map(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/harness/base.py": LOCK_WIDGET,
            "repro/harness/sub.py": """
                from repro.harness.base import Widget


                class Gadget(Widget):
                    def peek(self):
                        return self._queue[0]
            """,
        }, select={"LOCK001"})
        # base.py's own bad() fires too; the point here is that the
        # subclass inherits the guard map across modules.
        assert codes(findings) == ["LOCK001", "LOCK001"]
        inherited = [finding for finding in findings
                     if finding.path.endswith("sub.py")]
        assert len(inherited) == 1
        assert "peek()" in inherited[0].message

    def test_lock002_guarded_field_never_assigned(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/harness/widget.py": """
                from repro.locking import guarded_by


                @guarded_by("_lock", "_queue", "_quue")
                class Widget:
                    def __init__(self):
                        self._lock = None
                        self._queue = []
            """,
        }, select={"LOCK002"})
        assert codes(findings) == ["LOCK002"]
        assert "_quue" in findings[0].message

    def test_lock003_required_class_without_declaration(self, tmp_path):
        files = {
            "repro/harness/parallel.py": """
                class ChunkScheduler:
                    def __init__(self):
                        self._queue = []
            """,
        }
        findings = analyze(tmp_path, files, select={"LOCK003"})
        assert codes(findings) == ["LOCK003"]
        assert "ChunkScheduler" in findings[0].message

    def test_lock003_satisfied_by_declaration(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/harness/parallel.py": """
                from repro.locking import guarded_by


                @guarded_by("_lock", "_queue")
                class ChunkScheduler:
                    def __init__(self):
                        self._lock = None
                        self._queue = []
            """,
        }, select={"LOCK003"})
        assert findings == []


# ----------------------------------------------------------------------
# Pragma suppression

DET001_SNIPPET = """
    import time


    def stamp():
        return time.time(){pragma_same}
"""


class TestPragmas:
    def fixture(self, pragma_same=""):
        return {"repro/core/clock.py":
                DET001_SNIPPET.format(pragma_same=pragma_same)}

    def test_same_line_pragma(self, tmp_path):
        files = self.fixture("  # repro: allow[DET001]")
        assert analyze(tmp_path, files, select={"DET001"}) == []

    def test_line_above_pragma(self, tmp_path):
        files = {"repro/core/clock.py": """
            import time


            def stamp():
                # repro: allow[DET001]
                return time.time()
        """}
        assert analyze(tmp_path, files, select={"DET001"}) == []

    def test_wildcard_pragma(self, tmp_path):
        files = self.fixture("  # repro: allow[*]")
        assert analyze(tmp_path, files, select={"DET001"}) == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        files = self.fixture("  # repro: allow[DET002]")
        assert codes(analyze(tmp_path, files,
                             select={"DET001"})) == ["DET001"]

    def test_include_suppressed_marks_findings(self, tmp_path):
        files = self.fixture("  # repro: allow[DET001]")
        findings = analyze(tmp_path, files, select={"DET001"},
                           include_suppressed=True)
        assert codes(findings) == ["DET001"]
        assert findings[0].suppressed


# ----------------------------------------------------------------------
# CLI + report emitters


def clock_fixture(tmp_path, pragma=""):
    return write_tree(tmp_path / "tree", {
        "repro/core/clock.py": DET001_SNIPPET.format(pragma_same=pragma),
    })


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path / "tree",
                          {"repro/core/ok.py": "X = 1\n"})
        assert main([str(root), "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_strict_exit_one_on_findings(self, tmp_path, capsys):
        root = clock_fixture(tmp_path)
        assert main([str(root), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert out.rstrip().endswith("1 finding(s)")

    def test_non_strict_reports_but_exits_zero(self, tmp_path, capsys):
        root = clock_fixture(tmp_path)
        assert main([str(root)]) == 0
        assert "DET001" in capsys.readouterr().out

    def test_suppressed_findings_do_not_fail_strict(self, tmp_path):
        root = clock_fixture(tmp_path, "  # repro: allow[DET001]")
        assert main([str(root), "--strict", "--include-suppressed"]) == 0

    def test_select_filters_rules(self, tmp_path, capsys):
        root = clock_fixture(tmp_path)
        assert main([str(root), "--select", "DET002", "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path), "--select", "NOPE99"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_bad_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(ALL_CODES):
            assert code in out

    def test_json_report_round_trip(self, tmp_path):
        root = clock_fixture(tmp_path)
        output = tmp_path / "report.json"
        assert main([str(root), "--format", "json",
                     "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["tool"] == "repro-lint"
        assert payload["counts"] == {"total": 1, "active": 1,
                                     "suppressed": 0}
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["line"] == 5
        assert not finding["suppressed"]

    def test_sarif_report_structure(self, tmp_path):
        root = clock_fixture(tmp_path, "  # repro: allow[DET001]")
        output = tmp_path / "report.sarif"
        assert main([str(root), "--format", "sarif",
                     "--include-suppressed",
                     "--output", str(output)]) == 0
        document = json.loads(output.read_text())
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert result["suppressions"] == [{"kind": "inSource"}]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5
        # SARIF columns are 1-based; internal columns are AST offsets.
        assert region["startColumn"] >= 1

    def test_sarif_columns_are_one_based(self, tmp_path):
        findings = analyze(tmp_path, {
            "repro/core/clock.py": """
                import time

                STAMP = time.time()
            """,
        }, select={"DET001"})
        (finding,) = findings
        document = json.loads(render_sarif(findings, all_rules()))
        region = (document["runs"][0]["results"][0]["locations"][0]
                  ["physicalLocation"]["region"])
        assert region["startColumn"] == finding.column + 1

    def test_sarif_empty_run_lists_full_catalog(self):
        document = json.loads(render_sarif([], all_rules()))
        listed = {rule["id"]
                  for rule in document["runs"][0]["tool"]["driver"]["rules"]}
        assert ALL_CODES <= listed


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_every_rule_has_a_summary(code):
    rule = next(rule for rule in all_rules() if rule.code == code)
    assert rule.summary
