"""Chaos campaign: seeded storms, recovery invariants, CLI gate."""

import dataclasses
import json

import pytest

from repro.analysis import ChaosReport, ChaosScenario, run_chaos_campaign
from repro.analysis.chaos import CAMPAIGN_MODES, EXIT_VIOLATION, _check_invariants
from repro.cli import main
from repro.core import CostModel, gomcds
from repro.diagnostics import RCV001, RCV004, Diagnostic, Severity
from repro.faults import (
    FaultPlan,
    NodeFault,
    RecoveryPolicy,
    RecoveryReport,
    replay_with_recovery,
)
from repro.grid import structural_neighbors
from repro.mem import CapacityError
from repro.sim import PIMArray
from repro.workloads import paper_instance

STRUCTURAL = (
    "index", "seed", "mode", "n_node_faults", "n_link_faults", "drop_rate",
    "recoverable", "data_preserved", "n_detections", "n_rollbacks",
    "max_rollback_depth", "wasted_cost", "n_lost", "n_unreachable",
    "n_replica_served", "n_replica_promoted",
)


def structural(scenario):
    """Scenario fields with the wall-clock latency stripped out."""
    return {f: getattr(scenario, f) for f in STRUCTURAL}


@pytest.fixture(scope="module")
def campaign():
    return run_chaos_campaign(paper_instance(1, 8), seed=7, n_scenarios=4)


class TestCampaign:
    def test_invariants_hold_on_the_reference_seed(self, campaign):
        assert campaign.ok
        assert campaign.exit_code == 0
        assert campaign.violations == []

    def test_scenario_zero_is_the_fault_free_control(self, campaign):
        control = campaign.scenarios[0]
        assert control.n_node_faults == 0 and control.n_link_faults == 0
        assert control.drop_rate == 0.0
        assert control.n_detections == 0
        assert control.data_preserved

    def test_storms_actually_exercise_recovery(self, campaign):
        storms = campaign.scenarios[1:]
        assert sum(s.n_node_faults for s in storms) > 0
        assert sum(s.n_detections for s in storms) > 0
        assert {s.mode for s in storms} <= set(CAMPAIGN_MODES)

    def test_rollback_depth_bounded_by_checkpoint_interval(self, campaign):
        for s in campaign.scenarios:
            assert s.max_rollback_depth <= campaign.checkpoint_interval

    def test_same_seed_is_structurally_deterministic(self, campaign):
        again = run_chaos_campaign(paper_instance(1, 8), seed=7, n_scenarios=4)
        assert [structural(s) for s in campaign.scenarios] == [
            structural(s) for s in again.scenarios
        ]

    def test_different_seed_samples_different_storms(self, campaign):
        other = run_chaos_campaign(paper_instance(1, 8), seed=8, n_scenarios=4)
        assert [structural(s) for s in campaign.scenarios[1:]] != [
            structural(s) for s in other.scenarios[1:]
        ]

    def test_report_round_trips_through_json(self, campaign):
        d = campaign.to_dict()
        assert d["kind"] == "chaos_report"
        assert json.loads(json.dumps(d)) == d
        assert d["n_scenarios"] == 4 and d["exit_code"] == 0

    def test_render_mentions_every_scenario(self, campaign):
        text = campaign.render()
        for s in campaign.scenarios:
            assert f"#{s.index}" in text
        assert "OK" in campaign.summary()


class TestVerdict:
    def violating_report(self):
        clean = run_chaos_campaign(paper_instance(1, 8), seed=7, n_scenarios=2)
        bad = dataclasses.replace(
            clean.scenarios[1],
            violations=(
                Diagnostic(
                    code=RCV004,
                    severity=Severity.ERROR,
                    message="rollback depth 5 exceeds checkpoint interval 2",
                ),
            ),
        )
        clean.scenarios[1] = bad
        return clean

    def test_violation_flips_the_exit_code(self):
        report = self.violating_report()
        assert not report.ok
        assert report.exit_code == EXIT_VIOLATION
        assert "VIOLATION" in report.summary()
        assert "RCV004" in report.render()

    def test_violation_survives_serialization(self):
        d = self.violating_report().to_dict()
        assert d["exit_code"] == EXIT_VIOLATION
        assert d["scenarios"][1]["violations"][0]["code"] == "RCV004"


class TestCli:
    def test_clean_campaign_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "chaos.json"
        code = main(
            ["chaos", "--seed", "7", "--scenarios", "3",
             "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "chaos_report"
        assert report["n_scenarios"] == 3
        assert "chaos[seed=7]" in capsys.readouterr().out

    def test_json_format_on_stdout(self, capsys):
        assert main(["chaos", "--seed", "7", "--scenarios", "2",
                     "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["ok"] is True

    def test_violation_exits_three(self, capsys, monkeypatch):
        scenario = ChaosScenario(
            index=0, seed=70000, mode="degrade", n_node_faults=1,
            n_link_faults=0, drop_rate=0.0, recoverable=True,
            data_preserved=False, n_detections=1, n_rollbacks=1,
            max_rollback_depth=9, wasted_cost=0.0, n_lost=3,
            n_unreachable=0, n_replica_served=0, n_replica_promoted=0,
            recovery_latency_s=0.0,
            violations=(
                Diagnostic(
                    code=RCV004,
                    severity=Severity.ERROR,
                    message="rollback depth 9 exceeds checkpoint interval 2",
                ),
            ),
        )
        bad = ChaosReport(
            seed=7, bench=1, size=8, mesh=(4, 4), scheduler="GOMCDS",
            checkpoint_interval=2, scenarios=[scenario],
        )
        monkeypatch.setattr(
            "repro.analysis.run_chaos_campaign", lambda **kw: bad
        )
        assert main(["chaos", "--seed", "7", "--scenarios", "1"]) == 3
        captured = capsys.readouterr()
        assert "violation" in captured.err.lower()


class TestSilentLoss:
    """RCV001(b) flags only the losses a surviving replica could prevent."""

    @pytest.fixture
    def cut_off(self, lu8, mesh44):
        # kill a processor holding data together with every neighbour, so
        # its residents have no surviving route out
        model = CostModel(mesh44)
        tensor = lu8.reference_tensor()
        schedule = gomcds(tensor, model)
        victim = int(schedule.centers[0, 0])
        dead = {victim, *structural_neighbors(mesh44, victim)}
        alive_site = min(set(mesh44.iter_pids()) - dead)
        plan = FaultPlan(node_faults=tuple(NodeFault(p, start=0) for p in dead))
        on_victim = schedule.centers[:, 0] == victim
        return lu8, tensor, model, schedule, plan, victim, alive_site, on_victim

    @staticmethod
    def recover(lu8, tensor, model, schedule, plan, replicas):
        policy = RecoveryPolicy(
            mode="replicate", checkpoint_interval=2, reschedule=False
        )
        rep = replay_with_recovery(
            lu8.trace, schedule, model, plan, tensor=tensor, policy=policy,
            replicas=replicas,
        )
        return rep, _check_invariants(1, "replicate", rep, policy, None)

    def test_loss_of_every_copy_is_accounted_not_flagged(self, cut_off):
        lu8, tensor, model, schedule, plan, victim, _, on_victim = cut_off
        neighbour = structural_neighbors(model.topology, victim)[0]
        replicas = tuple(
            (victim, neighbour) if here else (int(c),)
            for here, c in zip(on_victim, schedule.centers[:, 0])
        )
        rep, violations = self.recover(
            lu8, tensor, model, schedule, plan, replicas
        )
        assert rep.recoverable
        assert rep.sim.n_lost >= int(on_victim.sum()) > 0
        assert rep.n_avoidable_lost == 0
        assert rep.n_degraded_lost > 0
        assert not [v for v in violations if v.code == RCV001]

    def test_failed_promotion_with_a_live_replica_is_flagged(
        self, cut_off, monkeypatch
    ):
        lu8, tensor, model, schedule, plan, victim, site, on_victim = cut_off
        replicas = tuple(
            (victim, site) if here else (int(c),)
            for here, c in zip(on_victim, schedule.centers[:, 0])
        )
        relocate = PIMArray.relocate

        def full_site(machine, datum, src, dst):
            if src == victim and dst == site:
                raise CapacityError(f"processor {site} is full")
            return relocate(machine, datum, src, dst)

        monkeypatch.setattr(PIMArray, "relocate", full_site)
        rep, violations = self.recover(
            lu8, tensor, model, schedule, plan, replicas
        )
        assert rep.recoverable
        assert rep.n_avoidable_lost == int(on_victim.sum())
        assert rep.n_replica_promoted == 0
        assert [v.code for v in violations if v.code == RCV001] == [RCV001]
        assert "live replica" in violations[0].message
        # the count survives serialization (the key exists only when set)
        clone = RecoveryReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert clone.n_avoidable_lost == rep.n_avoidable_lost
