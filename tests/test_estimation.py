"""Unit tests for the slack-sharing FT schedule length estimation
(paper §6, DESIGN.md §2.5)."""

from __future__ import annotations

import pytest

from repro.model import Application, FaultModel, Message, Process
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import CopyMapping, estimate_ft_schedule
from tests.conftest import make_mapping


def reexec(app, k):
    return PolicyAssignment.uniform(app, ProcessPolicy.re_execution(k))


class TestBasicProperties:
    def test_k0_equals_plain_lengths(self, chain_app, two_nodes):
        policies = PolicyAssignment.uniform(chain_app,
                                            ProcessPolicy.none())
        mapping = CopyMapping.from_process_map(
            {"P1": "N1", "P2": "N1", "P3": "N1"}, policies)
        estimate = estimate_ft_schedule(chain_app, two_nodes, mapping,
                                        policies, FaultModel(k=0))
        assert estimate.schedule_length == pytest.approx(40.0)

    def test_length_monotone_in_k(self, chain_app, two_nodes):
        lengths = []
        for k in range(4):
            policies = reexec(chain_app, k) if k else \
                PolicyAssignment.uniform(chain_app, ProcessPolicy.none())
            mapping = CopyMapping.from_process_map(
                {"P1": "N1", "P2": "N1", "P3": "N1"}, policies)
            estimate = estimate_ft_schedule(chain_app, two_nodes, mapping,
                                            policies, FaultModel(k=k))
            lengths.append(estimate.schedule_length)
        assert lengths == sorted(lengths)

    def test_wc_not_below_ff(self, fork_join_app, two_nodes):
        policies = reexec(fork_join_app, 2)
        mapping = make_mapping(fork_join_app, policies)
        estimate = estimate_ft_schedule(fork_join_app, two_nodes, mapping,
                                        policies, FaultModel(k=2))
        assert estimate.schedule_length >= estimate.ff_length
        for timing in estimate.timings.values():
            assert timing.wc_finish >= timing.ff_finish - 1e-9


class TestSlackSharing:
    """Same-node copies share one slack window (max, not sum)."""

    def _single_node_app(self):
        return Application(
            [Process("A", {"N1": 30.0}, mu=2.0),
             Process("B", {"N1": 50.0}, mu=2.0)],
            [Message("m", "A", "B")],
            deadline=10_000)

    def test_shared_slack_is_max(self, two_nodes):
        app = self._single_node_app()
        k = 2
        policies = reexec(app, k)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N1"},
                                               policies)
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=k))
        # ff = 80 (no alpha here? alpha=0) ; slack = k*(50+2) = 104.
        slack_b = k * (50.0 + 2.0)
        assert estimate.schedule_length == pytest.approx(80.0 + slack_b)

    def test_slack_not_summed(self, two_nodes):
        app = self._single_node_app()
        k = 1
        policies = reexec(app, k)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N1"},
                                               policies)
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=k))
        sum_of_slacks = (30.0 + 2.0) + (50.0 + 2.0)
        assert estimate.schedule_length < 80.0 + sum_of_slacks

    def test_cross_node_consumer_sees_worst_case(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 30.0}, mu=2.0),
             Process("B", {"N2": 10.0}, mu=2.0)],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=10_000)
        policies = reexec(app, 1)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N2"},
                                               policies)
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        b = estimate.timings[("B", 0)]
        a = estimate.timings[("A", 0)]
        # B waits for A's worst-case finish plus the bus.
        assert b.start >= a.wc_finish


class TestReplication:
    def test_replicas_add_no_slack(self, two_nodes):
        app = Application([Process("A", {"N1": 30.0, "N2": 30.0},
                                   mu=2.0)], deadline=10_000)
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.replication(1))
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        # Two parallel copies, no recovery slack: length = C + alpha = 30.
        assert estimate.schedule_length == pytest.approx(30.0)

    def test_consumer_waits_for_slowest_copy(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 10.0, "N2": 40.0}),
             Process("B", {"N1": 5.0, "N2": 5.0})],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=10_000)
        policies = PolicyAssignment.build(
            app, ProcessPolicy.replication(1),
            {"B": ProcessPolicy.re_execution(1)})
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2",
                               ("B", 0): "N1"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        # The N2 copy finishes at 40; B cannot start before it delivers.
        assert estimate.timings[("B", 0)].start > 40.0

    def test_colocated_replicas_serialize(self, two_nodes):
        app = Application([Process("A", {"N1": 30.0, "N2": 30.0})],
                          deadline=10_000)
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.replication(1))
        both_n1 = CopyMapping({("A", 0): "N1", ("A", 1): "N1"})
        spread = CopyMapping({("A", 0): "N1", ("A", 1): "N2"})
        est_serial = estimate_ft_schedule(app, two_nodes, both_n1,
                                          policies, FaultModel(k=1))
        est_spread = estimate_ft_schedule(app, two_nodes, spread,
                                          policies, FaultModel(k=1))
        assert est_serial.schedule_length > est_spread.schedule_length


class TestCheckpointingInEstimation:
    def test_checkpoints_reduce_slack_increase_ff(self, two_nodes):
        app = Application([Process("A", {"N1": 60.0}, alpha=1.0, mu=1.0,
                                   chi=1.0)], deadline=10_000)
        k = 2
        reexec_pol = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(k))
        ckpt_pol = PolicyAssignment.uniform(
            app, ProcessPolicy.checkpointing(k, 4))
        mapping = CopyMapping({("A", 0): "N1"})
        est_reexec = estimate_ft_schedule(app, two_nodes, mapping,
                                          reexec_pol, FaultModel(k=k))
        est_ckpt = estimate_ft_schedule(app, two_nodes, mapping,
                                        ckpt_pol, FaultModel(k=k))
        assert est_ckpt.ff_length > est_reexec.ff_length
        assert est_ckpt.schedule_length < est_reexec.schedule_length


class TestDeadlines:
    def test_local_deadline_violation_reported(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 30.0}, mu=2.0, deadline=40.0)],
            deadline=100.0)
        policies = reexec(app, 1)
        mapping = CopyMapping({("A", 0): "N1"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        assert estimate.local_deadline_violations == ("A",)
        assert not estimate.feasible

    def test_global_deadline_flag(self, two_nodes):
        app = Application([Process("A", {"N1": 30.0}, mu=2.0)],
                          deadline=31.0)
        policies = reexec(app, 1)
        mapping = CopyMapping({("A", 0): "N1"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        assert not estimate.meets_deadline

    def test_completion_bound(self, fork_join_app, two_nodes):
        policies = reexec(fork_join_app, 1)
        mapping = make_mapping(fork_join_app, policies)
        estimate = estimate_ft_schedule(fork_join_app, two_nodes, mapping,
                                        policies, FaultModel(k=1))
        assert estimate.completion_bound("P4") == \
            estimate.timings[("P4", 0)].wc_finish


class TestBudgetedSlackSharing:
    """The sound slack-sharing mode used by fault-injection campaigns.

    The default ``"max"`` rule assumes every copy can absorb all ``k``
    faults; with heterogeneous recovery budgets the adversary splits
    faults across saturated copies, and ``"budgeted"`` must charge
    that worst distribution.
    """

    def _two_independent(self, *, r_a: int, r_b: int):
        app = Application(
            [Process("A", {"N1": 50.0}),
             Process("B", {"N1": 30.0})],
            deadline=1000.0)
        policies = PolicyAssignment.build(
            app, ProcessPolicy.re_execution(r_a),
            {"B": ProcessPolicy.re_execution(r_b)})
        mapping = CopyMapping({("A", 0): "N1", ("B", 0): "N1"})
        return app, policies, mapping

    def test_unknown_mode_rejected(self, chain_app, two_nodes):
        policies = reexec(chain_app, 1)
        mapping = make_mapping(chain_app, policies)
        with pytest.raises(ValueError, match="slack_sharing"):
            estimate_ft_schedule(chain_app, two_nodes, mapping,
                                 policies, FaultModel(k=1),
                                 slack_sharing="nope")

    def test_matches_max_for_uniform_budgets(self, two_nodes):
        # Every copy can absorb the whole budget: concentration on the
        # costliest copy dominates, the DP reduces to the running max.
        app, policies, mapping = self._two_independent(r_a=2, r_b=2)
        fm = FaultModel(k=2)
        base = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                    fm)
        budgeted = estimate_ft_schedule(app, two_nodes, mapping,
                                        policies, fm,
                                        slack_sharing="budgeted")
        assert budgeted.schedule_length == \
            pytest.approx(base.schedule_length)
        # Both faults concentrated on A: ff 80 + 2 * 50.
        assert budgeted.schedule_length == pytest.approx(180.0)

    def test_charges_split_across_saturated_copies(self, two_nodes):
        # A can only absorb one fault (R=1 < k=2): the worst adversary
        # splits 1+1, costing 50 + 30 = 80 — more than either
        # concentration (A: 50, B: 60) the max rule considers.
        app, policies, mapping = self._two_independent(r_a=1, r_b=2)
        fm = FaultModel(k=2)
        base = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                    fm)
        budgeted = estimate_ft_schedule(app, two_nodes, mapping,
                                        policies, fm,
                                        slack_sharing="budgeted")
        assert base.schedule_length == pytest.approx(80.0 + 60.0)
        assert budgeted.schedule_length == pytest.approx(80.0 + 80.0)

    def test_never_below_max_mode(self, fork_join_app, two_nodes):
        for k in (1, 2, 3):
            policies = reexec(fork_join_app, k)
            mapping = make_mapping(fork_join_app, policies)
            fm = FaultModel(k=k)
            base = estimate_ft_schedule(fork_join_app, two_nodes,
                                        mapping, policies, fm)
            budgeted = estimate_ft_schedule(fork_join_app, two_nodes,
                                            mapping, policies, fm,
                                            slack_sharing="budgeted")
            assert budgeted.schedule_length >= \
                base.schedule_length - 1e-9

    def test_budget_exhaustion_discount_applied(self, two_nodes):
        # One copy, alpha > 0: the final retry of a full budget skips
        # detection exactly as in worst_case_duration (Fig. 1c), in
        # both sharing modes.
        app = Application([Process("A", {"N1": 60.0}, alpha=10.0,
                                   mu=10.0)], deadline=1000.0)
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(1))
        mapping = CopyMapping({("A", 0): "N1"})
        fm = FaultModel(k=1)
        for mode in ("max", "budgeted"):
            estimate = estimate_ft_schedule(app, two_nodes, mapping,
                                            policies, fm,
                                            slack_sharing=mode)
            # ff 70 (C + alpha) + retry (C + mu + alpha) - alpha.
            assert estimate.schedule_length == pytest.approx(140.0)

    def test_cache_keys_modes_separately(self, chain_app, two_nodes):
        from repro.eval import EvaluatorPool
        policies = PolicyAssignment.build(
            chain_app, ProcessPolicy.re_execution(1),
            {chain_app.process_names[0]:
             ProcessPolicy.re_execution(2)})
        mapping = make_mapping(chain_app, policies)
        fm = FaultModel(k=2)
        pool = EvaluatorPool()
        evaluator = pool.evaluator_for(chain_app, two_nodes, fm)
        base = evaluator.estimate(policies, mapping)
        budgeted = evaluator.estimate(policies, mapping,
                                      slack_sharing="budgeted")
        assert pool.stats().estimates.misses == 2
        assert budgeted.schedule_length >= base.schedule_length - 1e-9
        assert evaluator.estimate(policies, mapping,
                                  slack_sharing="budgeted") is budgeted
