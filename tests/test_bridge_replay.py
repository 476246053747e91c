"""Replay-campaign tests: sharded corpus checking through the harness.

Covers the ReplayCampaign's campaign surface (chunking, checkpoint,
restore validation), per-item corruption isolation (the chaos battery:
a garbled file mid-corpus must cost exactly one verdict locally and
on the service), the committed golden corpus, and the sweep-level views.
"""

import json
import os
import shutil

import pytest

from repro.bridge import replay as replay_module
from repro.bridge.export import trace_to_text
from repro.bridge.replay import (ReplayCampaign, ReplayShardStats,
                                 replay_specs, run_replay_sweep)
from repro.core.campaign import GeneratorKind
from repro.harness.parallel import SweepConfig
from repro.harness.service import run_service_sweep

DATA_DIR = os.path.join(os.path.dirname(__file__), "data", "bridge")

PASSING = """\
{"schema": "repro.bridge/trace", "version": 1, "source": "unit", "threads": 2}
{"event": "st_globally_perform", "tid": 0, "op": 0, "addr": 64, "value": 1, "overwritten": 0}
{"event": "ld_perform", "tid": 1, "op": 1, "addr": 64, "value": 1}
"""

FAILING = """\
{"schema": "repro.bridge/trace", "version": 1, "source": "unit", "threads": 2}
{"event": "st_globally_perform", "tid": 0, "op": 0, "addr": 64, "value": 1, "overwritten": 0}
{"event": "st_globally_perform", "tid": 0, "op": 1, "addr": 128, "value": 2, "overwritten": 0}
{"event": "ld_perform", "tid": 1, "op": 2, "addr": 128, "value": 2}
{"event": "ld_perform", "tid": 1, "op": 3, "addr": 64, "value": 0}
"""

# A coherence order whose overwrites form a cycle (op 2 overwrote op 3's
# value and op 3 overwrote op 2's) that the initial value never reaches.
CO_CYCLE_OFF_INIT = """\
{"schema": "repro.bridge/trace", "version": 1, "source": "unit", "threads": 2}
{"event": "st_globally_perform", "tid": 0, "op": 1, "addr": 64, "value": 1, "overwritten": 0}
{"event": "st_globally_perform", "tid": 0, "op": 2, "addr": 64, "value": 2, "overwritten": 3}
{"event": "st_globally_perform", "tid": 1, "op": 3, "addr": 64, "value": 3, "overwritten": 2}
"""


def make_corpus(directory, count: int, garble: int | None = None,
                failing: int | None = None) -> list[str]:
    """*count* distinct passing traces, optionally one garbled/failing."""
    paths = []
    for index in range(count):
        path = os.path.join(str(directory), f"t{index:04d}.jsonl")
        if index == garble:
            text = '{"schema": "repro.bridge/trace", "ver'  # truncated
        elif index == failing:
            text = FAILING
        else:
            # Distinct op ids per file keep signatures distinct too.
            text = PASSING.replace('"op": 0', f'"op": {2 * index}').replace(
                '"op": 1', f'"op": {2 * index + 1}')
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return paths


class TestReplayCampaign:
    def test_checks_every_trace_no_early_exit(self, tmp_path):
        paths = make_corpus(tmp_path, 5, failing=1)
        campaign = ReplayCampaign(paths)
        result = campaign.run(len(paths))
        assert result.evaluations == 5
        assert result.found
        assert result.evaluations_to_find == 2
        assert result.stats.failed == 1 and result.stats.corrupt == 0

    def test_corrupt_file_is_one_verdict(self, tmp_path):
        paths = make_corpus(tmp_path, 3, garble=1)
        result = ReplayCampaign(paths).run(3)
        assert result.stats.corrupt == 1
        assert result.stats.passed == 2
        assert dict(result.stats.verdicts)["t0001.jsonl"] == "corrupt"
        assert "(unreadable)" in result.stats.sources

    def test_chunked_equals_serial(self, tmp_path):
        paths = make_corpus(tmp_path, 7, failing=3)
        serial = ReplayCampaign(paths).run(7)
        chunked = ReplayCampaign(paths)
        checkpoint, result = None, None
        while result is None:
            result, checkpoint = chunked.run_chunk(
                7, checkpoint=checkpoint, pause_after=2)
        assert result.stats.verdicts == serial.stats.verdicts
        assert result.evaluations_to_find == serial.evaluations_to_find

    def test_checkpoint_resumes_on_a_fresh_campaign(self, tmp_path):
        paths = make_corpus(tmp_path, 4)
        first = ReplayCampaign(paths)
        result, checkpoint = first.run_chunk(4, pause_after=2)
        assert result is None and checkpoint.evaluations == 2
        second = ReplayCampaign(paths)
        result, _ = second.run_chunk(4, checkpoint=checkpoint)
        assert result.stats.traces == 4

    def test_restore_rejects_foreign_checkpoint(self, tmp_path):
        paths = make_corpus(tmp_path, 2)
        _, checkpoint = ReplayCampaign(paths, seed=1).run_chunk(
            2, pause_after=1)
        with pytest.raises(ValueError, match="checkpoint belongs"):
            ReplayCampaign(paths, seed=2).restore(checkpoint)

    def test_finished_campaign_refuses_rerun(self, tmp_path):
        paths = make_corpus(tmp_path, 2)
        campaign = ReplayCampaign(paths)
        campaign.run(2)
        with pytest.raises(RuntimeError, match="completion"):
            campaign.run(2)

    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ReplayCampaign([])

    def test_stats_equal_the_record_fold(self, tmp_path, monkeypatch):
        """The campaign records each trace in place; every checkpoint and
        the final stats equal folding ``ReplayShardStats.record`` over
        the same verdicts, and a checkpoint keeps the value it had when
        taken while the shard records more traces."""
        paths = make_corpus(tmp_path, 7, garble=2, failing=4)
        recorded = []
        record = replay_module._ShardTally.record

        def spy(tally, *verdict):
            recorded.append(verdict)
            record(tally, *verdict)

        monkeypatch.setattr(replay_module._ShardTally, "record", spy)
        campaign = ReplayCampaign(paths)
        checkpoints, result = [], None
        while result is None:
            result, checkpoint = campaign.run_chunk(7, pause_after=2)
            if checkpoint is not None:
                checkpoints.append(checkpoint)
        monkeypatch.undo()
        assert len(recorded) == 7
        assert [checkpoint.evaluations for checkpoint in checkpoints] \
            == [2, 4, 6]

        def fold(count):
            stats = ReplayShardStats()
            for verdict in recorded[:count]:
                stats = stats.record(*verdict)
            return stats

        for checkpoint in checkpoints:
            assert checkpoint.stats == fold(checkpoint.evaluations)
        assert result.stats == fold(7)
        assert result.stats.first_failure == 2
        assert result.stats.corrupt == 1 and result.stats.failed == 2
        assert result.detail == result.stats.detail


class TestCoherenceCycleOffInit:
    def test_unreachable_co_cycle_is_corrupt_not_a_failure(self, tmp_path):
        path = tmp_path / "co-cycle.jsonl"
        path.write_text(CO_CYCLE_OFF_INIT, encoding="utf-8")
        report = run_replay_sweep([str(path)])
        assert report.replay_verdicts() == {"co-cycle.jsonl": "corrupt"}
        detail = ReplayCampaign([str(path)]).run(1).stats.detail
        assert detail[1].startswith(
            "corruption: coherence order at 0x40 never reaches write (2, 'W')")


class TestReplaySpecs:
    def test_contiguous_sharding(self, tmp_path):
        make_corpus(tmp_path, 7)
        specs = replay_specs(str(tmp_path), shard_traces=3)
        assert [len(spec.trace_paths) for spec in specs] == [3, 3, 1]
        assert all(spec.kind is GeneratorKind.REPLAY for spec in specs)
        assert [spec.max_evaluations for spec in specs] == [3, 3, 1]

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no trace files"):
            replay_specs(str(tmp_path))


class TestChaosCorpus:
    """A garbled file in a 100-trace corpus costs exactly one verdict."""

    @pytest.mark.parametrize("where", ["local", "service"])
    def test_one_corrupt_ninety_nine_verdicts(self, tmp_path, where):
        make_corpus(tmp_path, 100, garble=57)
        config = SweepConfig(chunk_evaluations=4)
        if where == "local":
            report = run_replay_sweep(str(tmp_path), shard_traces=10,
                                      workers=2, config=config)
        else:
            report = run_service_sweep(
                replay_specs(str(tmp_path), shard_traces=10), config,
                workers=2)
        verdicts = report.replay_verdicts()
        assert len(verdicts) == 100
        assert verdicts["t0057.jsonl"] == "corrupt"
        assert sum(1 for v in verdicts.values() if v == "pass") == 99
        assert report.corrupt_traces == 1
        assert report.found_count == 1  # only the shard with the bad file

    def test_serial_and_parallel_verdicts_identical(self, tmp_path):
        make_corpus(tmp_path, 30, garble=11, failing=20)
        serial = run_replay_sweep(str(tmp_path), shard_traces=7, workers=1)
        parallel = run_replay_sweep(str(tmp_path), shard_traces=7,
                                    workers=3)
        assert serial.replay_verdicts() == parallel.replay_verdicts()
        assert serial.replay_sources() == parallel.replay_sources()


class TestGoldenCorpus:
    def test_committed_corpus_matches_golden_verdicts(self):
        with open(os.path.join(DATA_DIR, "golden_verdicts.json"),
                  encoding="utf-8") as handle:
            golden = json.load(handle)
        report = run_replay_sweep(DATA_DIR, shard_traces=3)
        assert report.replay_verdicts() == golden

    def test_memoization_hits_on_duplicated_corpus(self, tmp_path):
        for name in os.listdir(DATA_DIR):
            if name.endswith((".jsonl", ".log")):
                shutil.copy(os.path.join(DATA_DIR, name), tmp_path / name)
                shutil.copy(os.path.join(DATA_DIR, name),
                            tmp_path / f"dup-{name}")
        # One in-process sweep cache is shared by every shard, so the
        # duplicates of the first shards are guaranteed to hit.  The
        # pool queues every task up front with the empty shipment, so
        # its cross-shard hits depend on which worker pulls which shard
        # and are not asserted.
        memo = SweepConfig(verdict_memo=True)
        serial = run_replay_sweep(str(tmp_path), shard_traces=4,
                                  workers=1, config=memo)
        assert serial.verdict_cache is not None
        assert serial.verdict_cache["hits"] > 0
        pooled = run_replay_sweep(str(tmp_path), shard_traces=4,
                                  workers=2, config=memo)
        assert pooled.verdict_cache is not None
        # Memoization must not change any verdict.
        plain = run_replay_sweep(str(tmp_path), shard_traces=4)
        assert serial.replay_verdicts() == plain.replay_verdicts()
        assert pooled.replay_verdicts() == plain.replay_verdicts()


class TestReporting:
    def test_format_replay_report(self, tmp_path):
        from repro.harness.reporting import format_replay_report
        make_corpus(tmp_path, 4, garble=0)
        report = run_replay_sweep(str(tmp_path), shard_traces=2)
        text = format_replay_report(report)
        assert "(unreadable)" in text and "unit" in text
        assert "corrupt=1" in text

    def test_sweep_report_has_no_replay_views_for_generator_sweeps(self):
        from repro.harness.parallel import SweepReport
        from repro.sim.coverage import CoverageCollector
        report = SweepReport(shards=[], workers=1, wall_seconds=0.0,
                             coverage=CoverageCollector())
        assert report.corrupt_traces == 0
        assert report.replay_sources() == {}


class TestBridgeCli:
    def test_ingest_reports_and_fails_on_garbled(self, tmp_path, capsys):
        from repro.bridge.__main__ import main
        make_corpus(tmp_path, 3, garble=2)
        assert main(["ingest", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "2/3 trace file(s) parsed cleanly" in out

    def test_check_golden_roundtrip(self, capsys):
        from repro.bridge.__main__ import main
        golden = os.path.join(DATA_DIR, "golden_verdicts.json")
        assert main(["check", DATA_DIR, "--shard-traces", "3",
                     "--golden", golden]) == 0
        assert "golden verdicts match" in capsys.readouterr().out

    def test_check_golden_mismatch_fails(self, tmp_path, capsys):
        from repro.bridge.__main__ import main
        make_corpus(tmp_path, 2)
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps({"t0000.jsonl": "fail",
                                      "t0001.jsonl": "pass"}))
        assert main(["check", str(tmp_path), "--golden",
                     str(golden)]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_export_then_check(self, tmp_path, capsys):
        from repro.bridge.__main__ import main
        out = str(tmp_path / "corpus")
        assert main(["export", out, "--faults", "SQ+no-FIFO",
                     "--runs", "1"]) == 0
        assert main(["check", out, "--verdict-memo"]) == 0
        assert "Replay sweep" in capsys.readouterr().out


class TestTraceSinkHook:
    def test_campaign_trace_sink_sees_every_clean_iteration(self):
        from repro.core.campaign import Campaign
        from repro.core.config import GeneratorConfig
        from repro.sim.config import SystemConfig

        captured = []
        config = GeneratorConfig.quick(memory_kib=1, test_size=24,
                                       iterations=2)
        campaign = Campaign(
            kind=GeneratorKind.MCVERSI_RAND, generator_config=config,
            system_config=SystemConfig(num_cores=config.num_threads),
            seed=3, trace_sink=lambda threads, trace: captured.append(
                (threads, trace)))
        campaign.run(2)
        assert len(captured) == 2 * config.iterations
        # The sink receives exportable pairs.
        for threads, trace in captured:
            assert trace_to_text(threads, trace).startswith('{"schema"')
