"""The batch experiment engine: jobs, grids, cache, runner.

The contracts under test are the ones the sweeps rely on:

* parallel execution produces results cell-for-cell equal to serial
  execution, and byte-identical JSON/CSV exports;
* the shared evaluator pool returns estimates identical to fresh
  computation (same values, same object on repeat lookups);
* resume-from-checkpoint skips completed cells and never reuses a
  record whose parameters changed.
"""

from __future__ import annotations

import json

import pytest

import engine_runners
from repro.engine import (
    BatchJob,
    EngineConfig,
    EvaluatorPool,
    grid_jobs,
    resolve_runner,
    run_batch,
    run_job,
    solution_fingerprint,
)
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import estimate_ft_schedule
from repro.synthesis import initial_mapping

ECHO = "engine_runners:echo"
TOUCH = "engine_runners:touch_and_echo"


class TestBatchJob:
    def test_params_roundtrip(self):
        job = BatchJob.create(
            "j1", ECHO, size=20,
            settings={"iterations": 4, "tenure": None},
            k_range=[3, 6])
        params = job.params_dict()
        assert params["size"] == 20
        assert params["settings"] == {"iterations": 4, "tenure": None}
        assert params["k_range"] == [3, 6]

    def test_jobs_are_hashable_and_picklable(self):
        import pickle
        job = BatchJob.create("j1", ECHO, nested={"a": {"b": 1}})
        assert hash(job) == hash(pickle.loads(pickle.dumps(job)))

    def test_bad_runner_reference_rejected(self):
        with pytest.raises(ValueError, match="module:function"):
            BatchJob.create("j1", "no-colon-here", x=1)

    def test_resolve_runner(self):
        assert resolve_runner(ECHO) is engine_runners.echo
        with pytest.raises(ValueError, match="no runner"):
            resolve_runner("engine_runners:missing")

    def test_run_job_executes_runner(self):
        job = BatchJob.create("j1", ECHO, x=1)
        assert run_job(job) == {"x": 1}

    def test_run_job_rejects_non_dict_result(self):
        job = BatchJob.create("j1", "engine_runners:not_a_dict",
                              name="n")
        with pytest.raises(TypeError, match="expected a JSON"):
            run_job(job)


class TestGrid:
    def test_row_major_expansion(self):
        jobs = grid_jobs(ECHO, {"size": (20, 40), "seed": (1, 2)},
                         prefix="fig7")
        assert [job.job_id for job in jobs] == [
            "fig7/size=20/seed=1",
            "fig7/size=20/seed=2",
            "fig7/size=40/seed=1",
            "fig7/size=40/seed=2",
        ]

    def test_common_params_shared(self):
        jobs = grid_jobs(ECHO, {"size": (20,)}, prefix="p",
                         common={"budget": 7})
        assert jobs[0].params_dict() == {"budget": 7, "size": 20}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            grid_jobs(ECHO, {"size": ()}, prefix="p")
        with pytest.raises(ValueError, match="at least one axis"):
            grid_jobs(ECHO, {}, prefix="p")


class TestEvaluatorPoolCache:
    """The estimate tier every sweep cell shares through
    :class:`repro.engine.EvaluatorPool`."""

    def _workload(self, chain_app, two_nodes, k=2):
        policies = PolicyAssignment.uniform(
            chain_app, ProcessPolicy.re_execution(k))
        mapping = initial_mapping(chain_app, two_nodes, policies)
        return mapping, policies, FaultModel(k=k)

    def test_cached_equals_fresh(self, chain_app, two_nodes):
        mapping, policies, fm = self._workload(chain_app, two_nodes)
        evaluator = EvaluatorPool().evaluator_for(chain_app, two_nodes,
                                                  fm)
        cached = evaluator.estimate(policies, mapping)
        fresh = estimate_ft_schedule(chain_app, two_nodes, mapping,
                                     policies, fm)
        assert cached.schedule_length == fresh.schedule_length
        assert cached.ff_length == fresh.ff_length
        assert cached.timings == fresh.timings
        assert cached.local_deadline_violations == \
            fresh.local_deadline_violations

    def test_repeat_lookup_returns_same_object(self, chain_app,
                                               two_nodes):
        mapping, policies, fm = self._workload(chain_app, two_nodes)
        pool = EvaluatorPool()
        first = pool.evaluator_for(chain_app, two_nodes, fm).estimate(
            policies, mapping)
        second = pool.evaluator_for(chain_app, two_nodes, fm).estimate(
            policies, mapping)
        assert second is first
        assert pool.stats().estimates.hits == 1
        assert pool.stats().estimates.misses == 1

    def test_distinct_solutions_distinct_entries(self, chain_app,
                                                 two_nodes):
        mapping, policies, fm = self._workload(chain_app, two_nodes)
        pool = EvaluatorPool()
        evaluator = pool.evaluator_for(chain_app, two_nodes, fm)
        evaluator.estimate(policies, mapping)
        moved = mapping.replaced("P1", 0, "N2") \
            if mapping.node_of("P1") == "N1" \
            else mapping.replaced("P1", 0, "N1")
        evaluator.estimate(policies, moved)
        assert pool.stats().estimates.entries == 2
        assert pool.stats().estimates.misses == 2

    def test_k_and_contention_in_key(self, chain_app, two_nodes):
        mapping, policies, fm = self._workload(chain_app, two_nodes)
        pool = EvaluatorPool()
        evaluator = pool.evaluator_for(chain_app, two_nodes, fm)
        a = evaluator.estimate(policies, mapping, bus_contention=True)
        b = evaluator.estimate(policies, mapping, bus_contention=False)
        assert pool.stats().estimates.misses == 2
        assert a is not b
        pool.evaluator_for(chain_app, two_nodes,
                           FaultModel(k=1)).estimate(policies, mapping)
        assert pool.stats().estimates.misses == 3

    def test_bound_eviction(self, chain_app, two_nodes):
        mapping, policies, fm = self._workload(chain_app, two_nodes)
        pool = EvaluatorPool(max_entries=1)
        evaluator = pool.evaluator_for(chain_app, two_nodes, fm)
        evaluator.estimate(policies, mapping)
        evaluator.estimate(policies, mapping, bus_contention=False)
        assert pool.stats().estimates.entries == 1

    def test_fingerprint_order_independent(self, chain_app, two_nodes):
        policies = PolicyAssignment.uniform(
            chain_app, ProcessPolicy.re_execution(1))
        mapping = initial_mapping(chain_app, two_nodes, policies)
        reversed_policies = PolicyAssignment(
            dict(reversed(list(policies.items()))))
        assert solution_fingerprint(policies, mapping) == \
            solution_fingerprint(reversed_policies, mapping)


class TestEngineCheckpoint:
    def _jobs(self, log):
        return [
            BatchJob.create(f"cell/{name}", TOUCH, name=name,
                            value=i, log=str(log))
            for i, name in enumerate(("a", "b", "c"))
        ]

    def test_checkpoint_written_per_cell(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        run_batch(self._jobs(log),
                  EngineConfig(checkpoint_path=ckpt))
        lines = [json.loads(line)
                 for line in ckpt.read_text().splitlines()]
        assert [line["job_id"] for line in lines] == \
            ["cell/a", "cell/b", "cell/c"]
        assert all("result" in line and "params" in line
                   for line in lines)

    def test_resume_skips_completed_cells(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        first = run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        assert first.executed == 3 and first.resumed == 0

        second = run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        assert second.executed == 0 and second.resumed == 3
        # No new executions: the log still holds exactly one run.
        assert engine_runners.read_log(log) == ["a", "b", "c"]
        assert second.results() == first.results()

    def test_resume_partial(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        run_batch(jobs[:2], EngineConfig(checkpoint_path=ckpt))
        report = run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        assert report.resumed == 2 and report.executed == 1
        assert engine_runners.read_log(log) == ["a", "b", "c"]

    def test_changed_params_invalidate_record(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        changed = [BatchJob.create("cell/a", TOUCH, name="a",
                                   value=99, log=str(log))] + jobs[1:]
        report = run_batch(changed,
                           EngineConfig(checkpoint_path=ckpt))
        assert report.executed == 1 and report.resumed == 2
        assert report.result_of("cell/a")["value"] == 99

    def test_torn_checkpoint_line_tolerated(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        run_batch(jobs[:1], EngineConfig(checkpoint_path=ckpt))
        with open(ckpt, "a", encoding="utf-8") as handle:
            handle.write('{"job_id": "cell/b", "resu')  # torn write
        report = run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        assert report.resumed == 1 and report.executed == 2

    def test_torn_tail_repaired_before_appending(self, tmp_path):
        """A torn final line must not swallow the next appended record.

        Without repair, ``open(..., "a")`` glues the next completed
        cell onto the unterminated tail; that whole line then fails to
        parse on the following resume and a *valid* record is silently
        lost and re-executed.
        """
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        run_batch(jobs[:1], EngineConfig(checkpoint_path=ckpt))
        with open(ckpt, "a", encoding="utf-8") as handle:
            handle.write('{"job_id": "cell/b", "resu')  # killed writer
        run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        # Every line of the repaired checkpoint parses again...
        records = [json.loads(line)
                   for line in ckpt.read_text().splitlines()]
        assert sorted({r["job_id"] for r in records}) == \
            ["cell/a", "cell/b", "cell/c"]
        # ...so a third run resumes everything.
        third = run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        assert third.resumed == 3 and third.executed == 0
        assert engine_runners.read_log(log) == ["a", "b", "c"]

    def test_torn_single_line_checkpoint(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text('{"job_id": "cell/a", "par')  # only line torn
        report = run_batch(self._jobs(log),
                           EngineConfig(checkpoint_path=ckpt))
        assert report.executed == 3 and report.resumed == 0

    def test_non_dict_checkpoint_line_tolerated(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        run_batch(jobs[:1], EngineConfig(checkpoint_path=ckpt))
        with open(ckpt, "a", encoding="utf-8") as handle:
            handle.write('[1, 2, 3]\n"just a string"\n17\n')
        report = run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        assert report.resumed == 1 and report.executed == 2

    def test_corrupted_elapsed_never_blocks_resume(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        records = [json.loads(line)
                   for line in ckpt.read_text().splitlines()]
        records[1]["elapsed"] = "garbage"
        ckpt.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        assert report.resumed == 3 and report.executed == 0

    def test_no_resume_reexecutes(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "ckpt.jsonl"
        jobs = self._jobs(log)
        run_batch(jobs, EngineConfig(checkpoint_path=ckpt))
        report = run_batch(jobs, EngineConfig(checkpoint_path=ckpt,
                                              resume=False))
        assert report.executed == 3 and report.resumed == 0

    def test_checkpoint_directory_created(self, tmp_path):
        log = tmp_path / "log.txt"
        ckpt = tmp_path / "deep" / "nested" / "ckpt.jsonl"
        report = run_batch(self._jobs(log),
                           EngineConfig(checkpoint_path=ckpt))
        assert report.executed == 3
        assert ckpt.exists()

    def test_duplicate_job_ids_rejected(self, tmp_path):
        log = tmp_path / "log.txt"
        jobs = self._jobs(log) + self._jobs(log)[:1]
        with pytest.raises(ValueError, match="duplicate job id"):
            run_batch(jobs)

    def test_worker_error_propagates(self):
        job = BatchJob.create("boom", "engine_runners:failing",
                              name="boom")
        with pytest.raises(RuntimeError, match="exploded"):
            run_batch([job])


class TestReportExports:
    def test_json_and_csv_deterministic(self, tmp_path):
        jobs = [BatchJob.create(f"j{i}", ECHO, index=i,
                                nested={"x": i * 1.5})
                for i in range(3)]
        report = run_batch(jobs)
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        report.write_json(json_path)
        report.write_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert [j["job_id"] for j in payload["jobs"]] == \
            ["j0", "j1", "j2"]
        header, *rows = csv_path.read_text().splitlines()
        assert header == "job_id,index,nested.x"
        assert rows[2] == "j2,2,3.0"

    def test_result_of_unknown_job(self):
        report = run_batch([BatchJob.create("j0", ECHO, x=1)])
        with pytest.raises(KeyError):
            report.result_of("nope")
