"""Checkpoint journal and resume: durability, bit-identity, no re-runs."""

import json

import pytest

from repro.apps.readmem import ReadMemConfig
from repro.engine import memo
from repro.exec.checkpoint import CHECKPOINT_FORMAT, CheckpointError, CheckpointJournal
from repro.exec.executor import ExecutionInterrupted, execute, execute_run
from repro.exec.faults import FaultPlan
from repro.exec.plan import APU, DGPU, RunSpec
from repro.exec.retry import RetryPolicy
from repro.hardware.specs import Precision

POLICY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def spec_matrix(n=4):
    return [
        RunSpec(
            app="read-benchmark",
            model="OpenCL",
            platform=APU if i % 2 else DGPU,
            precision=Precision.SINGLE,
            config=ReadMemConfig(size=1024 * (i + 1)),
        )
        for i in range(n)
    ]


@pytest.fixture(autouse=True)
def fresh_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        outcome = execute_run(spec_matrix(1)[0])
        with CheckpointJournal.open(path) as journal:
            journal.record(outcome)
        loaded = CheckpointJournal.open(path)
        key = outcome.spec.content_key()
        assert len(loaded) == 1 and key in loaded
        assert loaded.restore(key).result == outcome.result

    def test_record_is_idempotent(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        outcome = execute_run(spec_matrix(1)[0])
        with CheckpointJournal.open(path) as journal:
            journal.record(outcome)
            journal.record(outcome)
        assert len(path.read_text().splitlines()) == 2  # header + one record
        assert len(CheckpointJournal.open(path)) == 1

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        a, b = (execute_run(s) for s in spec_matrix(2))
        with CheckpointJournal.open(path) as journal:
            journal.record(a)
            journal.record(b)
        # Chop the last record mid-line, as a mid-write crash would.
        text = path.read_text()
        path.write_text(text[: len(text) - 40])
        loaded = CheckpointJournal.open(path)
        assert len(loaded) == 1
        assert a.spec.content_key() in loaded

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a journal\n")
        with pytest.raises(CheckpointError):
            CheckpointJournal.open(path)

    def test_refuses_a_previous_format(self, tmp_path):
        # Version 1 journals pickled outcomes with per-layer counter
        # fields; they must be refused, not unpickled into outcomes
        # that lack the per-layer ``caches`` mapping.
        path = tmp_path / "ck.jsonl"
        path.write_text(json.dumps({"format": "repro-checkpoint/1"}) + "\n")
        with pytest.raises(CheckpointError, match="repro-checkpoint/1"):
            CheckpointJournal.open(path)

    def test_refuses_a_journal_of_launch_records(self, tmp_path):
        # Version 2 journals pickled results whose counters carried a
        # per-launch record list instead of the launch counts by
        # limiter; unpickled, they would read 0 launches per limiter.
        path = tmp_path / "ck.jsonl"
        path.write_text(json.dumps({"format": "repro-checkpoint/2"}) + "\n")
        with pytest.raises(CheckpointError) as info:
            CheckpointJournal.open(path)
        assert "repro-checkpoint/2" in str(info.value)
        assert CHECKPOINT_FORMAT in str(info.value)

    def test_header_declares_format(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal.open(path) as journal:
            journal.record(execute_run(spec_matrix(1)[0]))
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": CHECKPOINT_FORMAT}


class TestResume:
    def test_resume_skips_completed_and_is_bit_identical(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        specs = spec_matrix()
        first, stats1 = execute(specs, use_cache=False, checkpoint=path)
        assert stats1.resumed_runs == 0
        second, stats2 = execute(specs, use_cache=False, checkpoint=path)
        assert stats2.resumed_runs == len(specs)  # nothing re-executed
        assert [o.result for o in second] == [o.result for o in first]
        assert "resumed from checkpoint" in stats2.summary()

    def test_resume_runs_only_the_missing_specs(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        specs = spec_matrix(4)
        execute(specs[:2], use_cache=False, checkpoint=path)
        _, stats = execute(specs, use_cache=False, checkpoint=path)
        assert stats.resumed_runs == 2
        assert stats.unique_runs == 4

    def test_changed_content_is_not_restored(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        execute(spec_matrix(2), use_cache=False, checkpoint=path)
        widened = spec_matrix(2) + [
            RunSpec(
                app="read-benchmark",
                model="OpenACC",
                platform=APU,
                precision=Precision.SINGLE,
                config=ReadMemConfig(size=1024),
            )
        ]
        _, stats = execute(widened, use_cache=False, checkpoint=path)
        assert stats.resumed_runs == 2  # only the matching content

    def test_interrupt_flushes_then_resume_completes(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        specs = spec_matrix()
        clean, _ = execute(specs, use_cache=False)
        # Seed 6 draws the injected Ctrl-C on one mid-plan spec.
        plan = FaultPlan(seed=6, rates=(("interrupt", 0.4),))
        assert any(plan.drawn("interrupt", s.content_key()) for s in specs)
        with pytest.raises(ExecutionInterrupted) as info:
            execute(specs, use_cache=False, checkpoint=path, faults=plan, policy=POLICY)
        assert info.value.completed == len(CheckpointJournal.open(path)) >= 1
        resumed, stats = execute(specs, use_cache=False, checkpoint=path)
        assert stats.resumed_runs == info.value.completed
        assert [o.result for o in resumed] == [o.result for o in clean]

    def test_accepts_an_open_journal_instance(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.open(path)
        _, stats = execute(spec_matrix(2), use_cache=False, checkpoint=journal)
        assert stats.resumed_runs == 0
        assert len(CheckpointJournal.open(path)) == 2
