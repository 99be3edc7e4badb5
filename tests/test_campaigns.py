"""The Monte Carlo fault-injection campaign subsystem.

The contracts under test are the ones the acceptance of the campaign
pipeline rests on:

* sampling is deterministic, strategy-correct (exhaustive = the full
  enumeration, stratified covers every fault count), and chunk slices
  partition the plan list exactly;
* chunk statistics merge exactly, so serial and parallel campaigns
  produce byte-identical reports;
* a campaign resumes from a checkpoint truncated mid-line;
* the soundness seam: no sampled plan's simulated finish exceeds the
  certified estimate bound (property-tested over seeded workloads).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaigns import (
    CampaignConfig,
    CampaignStats,
    broadcast_allowance,
    campaign_jobs,
    chunk_slice,
    estimate_bound,
    load_campaign_workload,
    run_campaign,
    sample_campaign_plans,
)
from repro.engine import EngineConfig
from repro.errors import PolicyError
from repro.ftcpg.scenarios import count_fault_plans, iter_fault_plans
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import simulate
from repro.schedule import estimate_ft_schedule, synthesize_schedule
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload

QUICK = dict(workload={"processes": 5, "nodes": 2, "seed": 3}, k=2,
             samples=20, chunks=2, sampler="stratified")


@pytest.fixture(scope="module")
def small_instance():
    app, arch = generate_workload(GeneratorConfig(
        processes=6, nodes=2, seed=11, layer_width=3))
    k = 2
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = initial_mapping(app, arch, policies)
    return app, arch, mapping, policies, FaultModel(k=k)


class TestSampling:
    def test_unknown_sampler_rejected(self, small_instance):
        app, _, __, policies, fm = small_instance
        with pytest.raises(ValueError, match="unknown sampler"):
            sample_campaign_plans(app, policies, fm.k, sampler="nope")

    def test_fault_free_always_first(self, small_instance):
        app, _, __, policies, fm = small_instance
        for sampler in ("exhaustive", "uniform", "stratified"):
            plans = sample_campaign_plans(app, policies, fm.k,
                                          sampler=sampler, samples=10)
            assert plans[0].is_fault_free()

    def test_exhaustive_is_the_full_enumeration(self, small_instance):
        app, _, __, policies, fm = small_instance
        plans = sample_campaign_plans(app, policies, fm.k,
                                      sampler="exhaustive")
        assert len(plans) == count_fault_plans(app, policies, fm.k)
        expected = {tuple(sorted(p.faults.items()))
                    for p in iter_fault_plans(app, policies, fm.k)}
        assert {tuple(sorted(p.faults.items()))
                for p in plans} == expected

    def test_exhaustive_refuses_large_spaces(self):
        app, arch = generate_workload(GeneratorConfig(
            processes=30, nodes=3, seed=1))
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(6))
        with pytest.raises(PolicyError, match="exhaustive campaign"):
            sample_campaign_plans(app, policies, 6,
                                  sampler="exhaustive")

    def test_exhaustive_scales_to_many_copies(self):
        # 30 copies at k = 2: the pruned enumeration must stay linear
        # in the number of *valid* plans (the old product-then-filter
        # walked 3^30 combinations here).
        app, arch = generate_workload(GeneratorConfig(
            processes=30, nodes=3, seed=1))
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(2))
        plans = sample_campaign_plans(app, policies, 2,
                                      sampler="exhaustive")
        assert len(plans) == count_fault_plans(app, policies, 2)

    def test_stratified_covers_every_fault_count(self, small_instance):
        app, _, __, policies, fm = small_instance
        plans = sample_campaign_plans(app, policies, fm.k,
                                      sampler="stratified", samples=20,
                                      seed=5)
        totals = {p.total_faults for p in plans}
        assert totals == {0, 1, 2}
        by_total = {t: sum(1 for p in plans if p.total_faults == t)
                    for t in (1, 2)}
        # The single-fault stratum saturates: only 6 distinct plans
        # exist (one per copy), and stratification finds them all; its
        # unused quota spills into the k-fault stratum so the campaign
        # still delivers the full 20 faulty samples.
        assert by_total == {1: 6, 2: 14}
        assert len(plans) == 21  # fault-free + samples

    def test_stratified_budget_respected(self, small_instance):
        app, _, __, policies, fm = small_instance
        for plan in sample_campaign_plans(app, policies, fm.k,
                                          sampler="stratified",
                                          samples=30, seed=9):
            assert plan.total_faults <= fm.k
            for (process, copy), counts in plan.faults.items():
                cap = policies.of(process).copies[copy].recoveries + 1
                assert sum(counts) <= cap

    def test_sampling_deterministic(self, small_instance):
        app, _, __, policies, fm = small_instance
        for sampler in ("uniform", "stratified"):
            first = sample_campaign_plans(app, policies, fm.k,
                                          sampler=sampler, samples=15,
                                          seed=3)
            second = sample_campaign_plans(app, policies, fm.k,
                                           sampler=sampler, samples=15,
                                           seed=3)
            assert [p.faults for p in first] == \
                [p.faults for p in second]

    def test_plans_deduplicated(self, small_instance):
        app, _, __, policies, fm = small_instance
        plans = sample_campaign_plans(app, policies, fm.k,
                                      sampler="stratified", samples=40,
                                      seed=1)
        signatures = [tuple(sorted(p.faults.items())) for p in plans]
        assert len(signatures) == len(set(signatures))

    def test_chunk_slices_partition(self, small_instance):
        app, _, __, policies, fm = small_instance
        plans = sample_campaign_plans(app, policies, fm.k,
                                      sampler="uniform", samples=17)
        slices = [chunk_slice(plans, i, 4) for i in range(4)]
        assert sum(len(s) for s in slices) == len(plans)
        merged = {id(p) for s in slices for p in s}
        assert len(merged) == len(plans)

    def test_chunk_slice_bounds_checked(self):
        with pytest.raises(ValueError, match="chunks"):
            chunk_slice([], 0, 0)
        with pytest.raises(ValueError, match="chunk"):
            chunk_slice([], 3, 2)


class TestStats:
    def test_merge_equals_single_stream(self, small_instance):
        app, arch, mapping, policies, fm = small_instance
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        estimate = estimate_ft_schedule(app, arch, mapping, policies,
                                        fm, slack_sharing="budgeted")
        bound = estimate_bound(app, arch, estimate, fm.k)
        plans = sample_campaign_plans(app, policies, fm.k,
                                      sampler="stratified", samples=12)
        results = [simulate(app, arch, mapping, policies, fm, schedule,
                            plan) for plan in plans]

        whole = CampaignStats()
        for result in results:
            whole.observe(result, bound=bound,
                          ff_length=estimate.ff_length,
                          deadline=app.deadline)
        merged = CampaignStats()
        for chunk in range(3):
            part = CampaignStats()
            for result in results[chunk::3]:
                part.observe(result, bound=bound,
                             ff_length=estimate.ff_length,
                             deadline=app.deadline)
            merged.merge(CampaignStats.from_jsonable(
                json.loads(json.dumps(part.to_jsonable()))))
        assert merged.to_jsonable() == whole.to_jsonable()

    def test_jsonable_roundtrip(self):
        stats = CampaignStats()
        assert CampaignStats.from_jsonable(
            stats.to_jsonable()).to_jsonable() == stats.to_jsonable()

    def test_bad_histogram_rejected(self):
        payload = CampaignStats().to_jsonable()
        payload["gap_hist"] = [0, 1]
        with pytest.raises(ValueError, match="bins"):
            CampaignStats.from_jsonable(payload)


class TestCampaignRunner:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="sampler"):
            CampaignConfig(sampler="nope")
        with pytest.raises(ValueError, match="chunks"):
            CampaignConfig(chunks=0)
        with pytest.raises(ValueError, match="k must"):
            CampaignConfig(k=-1)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign preset"):
            load_campaign_workload({"preset": "nope"})

    def test_jobs_cover_all_chunks(self):
        config = CampaignConfig(**QUICK)
        jobs = campaign_jobs(config)
        assert len(jobs) == config.chunks
        assert [job.params_dict()["chunk"] for job in jobs] == [0, 1]

    def test_serial_parallel_byte_identical(self):
        config = CampaignConfig(**QUICK)
        serial = run_campaign(config,
                              engine_config=EngineConfig(workers=1))
        parallel = run_campaign(config,
                                engine_config=EngineConfig(workers=2))
        assert serial.to_json() == parallel.to_json()

    def test_campaign_sound_and_clean(self):
        report = run_campaign(CampaignConfig(**QUICK))
        assert report.stats.plans == report.plans_total
        assert report.stats.violations == 0
        assert report.stats.deadline_misses == 0
        assert report.stats.exceeded == 0
        assert report.ok
        assert report.stats.worst_makespan <= report.estimate_bound
        assert report.stats.worst_makespan <= report.exact_worst_case + 1e-6

    def test_resume_from_mid_line_truncation(self, tmp_path):
        config = CampaignConfig(**QUICK)
        ckpt = tmp_path / "campaign.ckpt.jsonl"
        first = run_campaign(config,
                             engine_config=EngineConfig(
                                 workers=1, checkpoint_path=ckpt))
        assert first.executed_chunks == config.chunks
        # Kill the writer mid-record: tear the final line in half.
        text = ckpt.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        ckpt.write_text("".join(lines[:-1]) + lines[-1][:40],
                        encoding="utf-8")
        second = run_campaign(config,
                              engine_config=EngineConfig(
                                  workers=1, checkpoint_path=ckpt))
        assert second.resumed_chunks == config.chunks - 1
        assert second.executed_chunks == 1
        assert second.to_json() == first.to_json()

    def test_certified_campaign(self):
        config = CampaignConfig(**QUICK, certify=True)
        report = run_campaign(config)
        verification = report.verification
        assert verification is not None
        assert verification.ok
        assert report.ok
        # The certificate covers the very design the campaign
        # sampled: identical exact worst case by construction.
        assert verification.exact_worst_case \
            == report.exact_worst_case
        # Exhaustive worst >= anything a sampled subset reached.
        assert verification.stats.worst_makespan \
            >= report.stats.worst_makespan - 1e-9
        payload = report.to_jsonable()
        assert payload["verification"]["certified"] is True
        assert any("certificate:" in line
                   for line in report.summary_lines())
        # Without certify the report carries no verification block.
        plain = run_campaign(CampaignConfig(**QUICK))
        assert plain.verification is None
        assert "verification" not in plain.to_jsonable()

    def test_certify_beyond_budget_degrades_gracefully(self):
        config = CampaignConfig(**QUICK, certify=True,
                                certify_max_scenarios=1)
        report = run_campaign(config)
        # The sampled report survives; the certificate is recorded
        # as skipped instead of crashing the whole campaign.
        assert report.verification is None
        assert report.certify_skipped is not None
        assert "exceed the verification limit" in \
            report.certify_skipped
        assert report.ok  # sampled verdict untouched
        assert report.to_jsonable()["verification"]["skipped"]
        assert any("SKIPPED" in line
                   for line in report.summary_lines())

    def test_exhaustive_campaign_matches_verify_count(self):
        config = CampaignConfig(
            workload={"processes": 4, "nodes": 2, "seed": 2}, k=1,
            sampler="exhaustive", chunks=2)
        report = run_campaign(config)
        app, _ = load_campaign_workload(config.workload)
        assert report.ok
        assert report.stats.plans == report.plans_total
        assert report.stats.faulty_plans == report.stats.plans - 1


class TestSoundnessSeam:
    """The seam the campaign relies on: the certified estimate bound
    dominates the simulated finish of every sampled fault plan."""

    RELAXED = settings(max_examples=10, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])

    @RELAXED
    @given(processes=st.integers(3, 6), nodes=st.integers(1, 3),
           seed=st.integers(0, 10_000), k=st.integers(1, 2))
    def test_estimate_dominates_simulated_finish(self, processes,
                                                 nodes, seed, k):
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=nodes, seed=seed,
            layer_width=3))
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(k))
        mapping = initial_mapping(app, arch, policies)
        fm = FaultModel(k=k)
        schedule = synthesize_schedule(app, arch, mapping, policies,
                                       fm, max_contexts=200_000)
        estimate = estimate_ft_schedule(app, arch, mapping, policies,
                                        fm, slack_sharing="budgeted")
        bound = estimate_bound(app, arch, estimate, k)
        plans = sample_campaign_plans(app, policies, k,
                                      sampler="stratified", samples=20,
                                      seed=seed)
        for plan in plans:
            result = simulate(app, arch, mapping, policies, fm,
                              schedule, plan)
            assert result.ok, result.errors[:1]
            assert result.makespan <= bound + 1e-6, (
                f"plan {plan.describe()} finished at {result.makespan}"
                f" beyond the certified bound {bound}")

    def test_replicated_estimate_bound_covers_exact_worst(self):
        """Positive regression: the all-replicated three-node design
        hypothesis once found unsound (``4p-3n-s283/MXR/k=1``). The
        exact scheduler used to serialize two co-located replicas in
        the opposite order from the estimator's priority-first list
        schedule, putting the exact timeline whole WCETs beyond the
        estimate; the estimator now serializes copies
        earliest-start-first exactly as the exact scheduler's context
        exploration does, so the bare estimate + broadcast allowance
        covers the exact worst case with no floor (``estimate_bound``
        no longer accepts one)."""
        from repro.runtime import verify_tolerance

        app, arch = generate_workload(GeneratorConfig(
            processes=4, nodes=3, seed=283, layer_width=3))
        k = 1
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.replication(k))
        mapping = initial_mapping(app, arch, policies)
        fm = FaultModel(k=k)
        schedule = synthesize_schedule(app, arch, mapping, policies,
                                       fm, max_contexts=200_000)
        estimate = estimate_ft_schedule(app, arch, mapping, policies,
                                        fm, slack_sharing="budgeted")
        report = verify_tolerance(app, arch, mapping, policies, fm,
                                  schedule)
        assert report.ok
        bare = estimate_bound(app, arch, estimate, k)
        assert schedule.worst_case_length <= bare + 1e-6, (
            f"exact worst {schedule.worst_case_length} beyond the "
            f"bare certified bound {bare}")
        assert report.worst_makespan <= bare + 1e-6, (
            f"simulated worst {report.worst_makespan} beyond the "
            f"bare certified bound {bare}")
        # On this design the alignment is exact: the estimate equals
        # the certified worst path, so the allowance is pure margin.
        assert estimate.schedule_length == pytest.approx(
            schedule.worst_case_length, abs=1e-6)

    @RELAXED
    @given(processes=st.integers(3, 6), nodes=st.integers(2, 3),
           seed=st.integers(0, 10_000), k=st.integers(1, 2),
           hybrid=st.booleans())
    def test_soundness_sweep_replicated_hybrid(self, processes, nodes,
                                               seed, k, hybrid):
        """Floor-free soundness over random replicated/hybrid shapes:
        certified bound >= exact worst case >= simulated worst. The
        ``"max"`` slack rule is asserted only on its documented sound
        domain (no replication hybrid — PR 2's finding, independent
        of replica ordering); ``"budgeted"`` is asserted always."""
        from repro.runtime import verify_tolerance

        if hybrid and k < 2:
            hybrid = False
        policy = (ProcessPolicy.replication_and_checkpointing(k, 1)
                  if hybrid else ProcessPolicy.replication(k))
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=nodes, seed=seed,
            layer_width=3))
        policies = PolicyAssignment.uniform(app, policy)
        mapping = initial_mapping(app, arch, policies)
        fm = FaultModel(k=k)
        schedule = synthesize_schedule(app, arch, mapping, policies,
                                       fm, max_contexts=200_000)
        report = verify_tolerance(app, arch, mapping, policies, fm,
                                  schedule)
        assert report.ok
        assert report.worst_makespan \
            <= schedule.worst_case_length + 1e-6
        for mode in ("budgeted",) if hybrid else ("budgeted", "max"):
            estimate = estimate_ft_schedule(
                app, arch, mapping, policies, fm, slack_sharing=mode)
            bound = estimate_bound(app, arch, estimate, k)
            assert schedule.worst_case_length <= bound + 1e-6, (
                f"{processes}p-{nodes}n-s{seed}/k={k}"
                f"{'/hybrid' if hybrid else ''}: exact worst "
                f"{schedule.worst_case_length} beyond the {mode} "
                f"bound {bound}")

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: estimate_bound falls below the exact worst case "
        "on these MXR designs while the report reads certified"))
    @pytest.mark.parametrize("workload_seed, k, seed", [
        (352335221, 2, 1705325917),
        (471905938, 3, 652257273),
        (1483891569, 2, 1704736625),
    ], ids=["s352335221-k2", "s471905938-k3", "s1483891569-k2"])
    def test_known_unsound_bound(self, workload_seed, k, seed):
        """Generated 12-process/2-node instances on which the
        synthesized design's certified bound is below the exact worst
        case (= simulated worst, e.g. 622.975 < 760.014 on the first).
        Strict xfail: the test starts passing, and so fails, the
        moment the estimator covers them."""
        from repro.verify import VerifyConfig, run_verify_chunk, \
            verify_jobs

        config = VerifyConfig(
            workload={"processes": 12, "nodes": 2,
                      "seed": workload_seed},
            k=k, chunks=1, seed=seed)
        cell = run_verify_chunk(verify_jobs(config)[0].params_dict())
        stats = cell["stats"]
        if stats["failures"] \
                or stats["worst_makespan"] != cell["exact_worst_case"]:
            # Not an AssertionError: a changed instance fails outright
            # instead of passing as the expected failure.
            pytest.fail("the instance no longer has the reproducer's "
                        "shape (certified, simulated worst = exact "
                        "worst case); re-derive the reproducer")
        assert cell["estimate_bound"] >= cell["exact_worst_case"], (
            f"bound {cell['estimate_bound']} below the exact worst "
            f"case {cell['exact_worst_case']}")

    SOUNDNESS_SEEDS = tuple(range(20))
    SOUNDNESS_SIZES = (4, 5)
    #: Checks per (seed, size): k=1 replication x 2 modes, k=2
    #: replication x 2 modes + hybrid x budgeted-only.
    SOUNDNESS_DESIGNS = len(SOUNDNESS_SEEDS) * len(SOUNDNESS_SIZES) * 5
    assert SOUNDNESS_DESIGNS >= 200

    @pytest.mark.parametrize("seed", SOUNDNESS_SEEDS)
    def test_soundness_grid_replicated_hybrid(self, seed):
        """The deterministic >= 200-design floor-free acceptance grid
        behind the hypothesis sweep above: every replicated/hybrid
        design here must satisfy certified bound >= exact worst case
        >= simulated worst with no exact-tables floor."""
        from repro.runtime import verify_tolerance

        for processes in self.SOUNDNESS_SIZES:
            app, arch = generate_workload(GeneratorConfig(
                processes=processes, nodes=3, seed=seed,
                layer_width=3))
            for k in (1, 2):
                combos = [(ProcessPolicy.replication(k),
                           ("budgeted", "max"))]
                if k >= 2:
                    combos.append(
                        (ProcessPolicy.replication_and_checkpointing(
                            k, 1), ("budgeted",)))
                for policy, modes in combos:
                    policies = PolicyAssignment.uniform(app, policy)
                    mapping = initial_mapping(app, arch, policies)
                    fm = FaultModel(k=k)
                    schedule = synthesize_schedule(
                        app, arch, mapping, policies, fm,
                        max_contexts=200_000)
                    report = verify_tolerance(app, arch, mapping,
                                              policies, fm, schedule)
                    assert report.ok
                    assert report.worst_makespan \
                        <= schedule.worst_case_length + 1e-6
                    for mode in modes:
                        estimate = estimate_ft_schedule(
                            app, arch, mapping, policies, fm,
                            slack_sharing=mode)
                        bound = estimate_bound(app, arch, estimate, k)
                        assert schedule.worst_case_length \
                            <= bound + 1e-6, (
                                f"{processes}p-3n-s{seed}/k={k} "
                                f"{policy!r}: exact worst "
                                f"{schedule.worst_case_length} beyond "
                                f"the {mode} bound {bound}")

    def test_budgeted_never_below_max_estimate(self, small_instance):
        app, arch, mapping, policies, fm = small_instance
        base = estimate_ft_schedule(app, arch, mapping, policies, fm)
        certified = estimate_ft_schedule(app, arch, mapping, policies,
                                         fm, slack_sharing="budgeted")
        assert certified.schedule_length >= \
            base.schedule_length - 1e-9

    def test_allowance_scales_with_instance(self, small_instance):
        app, arch, _, __, fm = small_instance
        allowance = broadcast_allowance(app, arch, fm.k)
        assert allowance == pytest.approx(
            (fm.k + len(app.process_names)) * arch.bus.round_length)


class TestCampaignSweep:
    def _config(self):
        from repro.experiments.campaign import CampaignSweepConfig
        from repro.synthesis.tabu import TabuSettings
        return CampaignSweepConfig(
            sizes=(4, 5), seeds=(1,), k=1, samples=6,
            settings=TabuSettings(iterations=4, neighborhood=4,
                                  bus_contention=False))

    def test_sweep_rows_sound(self):
        from repro.experiments.campaign import run_campaign_sweep
        rows = run_campaign_sweep(self._config())
        assert [row.processes for row in rows] == [4, 5]
        for row in rows:
            assert row.cells == 1
            assert row.plans > 0
            assert row.exceeded == 0
            assert row.violations == 0
            # The sampled worst case cannot pass the exact worst case.
            assert row.sim_coverage <= 100.0 + 1e-6

    def test_sweep_cell_pure_and_json_stable(self):
        import json as json_mod
        from repro.experiments.campaign import (
            campaign_sweep_jobs,
            run_campaign_sweep_cell,
        )
        job = campaign_sweep_jobs(self._config())[0]
        first = run_campaign_sweep_cell(job.params_dict())
        second = run_campaign_sweep_cell(job.params_dict())
        assert first == second
        assert json_mod.loads(json_mod.dumps(first)) == first
