"""Chaos campaign: randomized fault storms against the recovery invariants.

Online recovery (:mod:`repro.faults.online`) makes hard promises —
checkpoints restore bit-identically, rollbacks never rewind past one
interval, a fault-free checkpointed run is indistinguishable from
:func:`~repro.sim.replay_schedule`, and the ``replicate`` mode loses
no datum instance in a run the controller fully recovered.  A unit test checks each promise
on one hand-built plan; this harness checks all of them on *seeded
storms*: every scenario samples a fresh :meth:`FaultPlan.random` (capped
by ``max_down_fraction`` so the array stays survivable), drives a
:class:`~repro.faults.RecoveryController` to completion and asserts the
invariants, reporting violations under the ``RCV0xx`` codes catalogued
in ``docs/fault-model.md``:

``RCV001``
    silent data loss — a recoverable run lost instances the mode
    promised to keep, or references vanished from the outcome buckets;
``RCV002``
    broken checkpoint round-trip — a restore did not reproduce the
    checkpoint digest;
``RCV003``
    fault-free drift — the checkpointed replay of a healthy run is not
    bit-identical to :func:`~repro.sim.replay_schedule`;
``RCV004``
    rollback overshoot — a rewind exceeded the checkpoint interval.

The campaign is deterministic in its seed: scenario ``i`` of seed ``s``
always samples the same storm, so a red report is replayable with
``repro chaos --seed s``.  Exit code 0 means every invariant held on
every scenario; 3 mirrors the CLI's unreachable-data convention (an
invariant violation *is* unaccounted data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core import replicated_scds, scheduler_spec
from ..diagnostics import RCV001, RCV002, RCV003, RCV004, Diagnostic, Severity
from ..faults import FaultPlan, RecoveryPolicy, replay_with_recovery
from ..obs import Instrumentation, resolve
from ..sim import replay_schedule
from ..workloads import PaperInstance

__all__ = ["ChaosScenario", "ChaosReport", "run_chaos_campaign"]

#: exit code for an invariant violation (mirrors EXIT_UNREACHABLE_DATA)
EXIT_VIOLATION = 3

#: degradation modes the campaign cycles through (strict is excluded:
#: it raises by design on storms that strand data, which is the fail-fast
#: contract, not a recovery invariant)
CAMPAIGN_MODES = ("degrade", "replicate")


@dataclass(frozen=True)
class ChaosScenario:
    """One storm: the sampled plan, the recovery outcome, the verdict."""

    index: int
    seed: int
    mode: str
    n_node_faults: int
    n_link_faults: int
    drop_rate: float
    recoverable: bool
    data_preserved: bool
    n_detections: int
    n_rollbacks: int
    max_rollback_depth: int
    wasted_cost: float
    n_lost: int
    n_unreachable: int
    n_replica_served: int
    n_replica_promoted: int
    recovery_latency_s: float
    violations: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "mode": self.mode,
            "n_node_faults": self.n_node_faults,
            "n_link_faults": self.n_link_faults,
            "drop_rate": self.drop_rate,
            "recoverable": self.recoverable,
            "data_preserved": self.data_preserved,
            "n_detections": self.n_detections,
            "n_rollbacks": self.n_rollbacks,
            "max_rollback_depth": self.max_rollback_depth,
            "wasted_cost": self.wasted_cost,
            "n_lost": self.n_lost,
            "n_unreachable": self.n_unreachable,
            "n_replica_served": self.n_replica_served,
            "n_replica_promoted": self.n_replica_promoted,
            "recovery_latency_s": self.recovery_latency_s,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass
class ChaosReport:
    """Campaign verdict: per-scenario outcomes plus the aggregate gate."""

    seed: int
    bench: int
    size: int
    mesh: tuple[int, int]
    scheduler: str
    checkpoint_interval: int
    scenarios: list[ChaosScenario] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def violations(self) -> list[Diagnostic]:
        return [v for s in self.scenarios for v in s.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else EXIT_VIOLATION

    def to_dict(self) -> dict:
        return {
            "kind": "chaos_report",
            "seed": self.seed,
            "bench": self.bench,
            "size": self.size,
            "mesh": list(self.mesh),
            "scheduler": self.scheduler,
            "checkpoint_interval": self.checkpoint_interval,
            "n_scenarios": self.n_scenarios,
            "n_violations": len(self.violations),
            "ok": self.ok,
            "exit_code": self.exit_code,
            "elapsed_s": self.elapsed_s,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        mean_latency = (
            sum(s.recovery_latency_s for s in self.scenarios)
            / max(1, self.n_scenarios)
        )
        return (
            f"chaos[seed={self.seed}]: {self.n_scenarios} scenarios, "
            f"{sum(s.n_detections for s in self.scenarios)} detections, "
            f"{sum(s.n_rollbacks for s in self.scenarios)} rollbacks, "
            f"mean recovery latency {mean_latency * 1e3:.1f} ms — {verdict}"
        )

    def render(self) -> str:
        lines = [self.summary()]
        for s in self.scenarios:
            flag = "ok " if s.ok else "BAD"
            lines.append(
                f"  [{flag}] #{s.index} {s.mode:9s} "
                f"nodes={s.n_node_faults} links={s.n_link_faults} "
                f"drop={s.drop_rate:.2f} detect={s.n_detections} "
                f"rollback={s.n_rollbacks}(depth<={s.max_rollback_depth}) "
                f"lost={s.n_lost} unreachable={s.n_unreachable}"
            )
            for v in s.violations:
                lines.append(f"        {v.render()}")
        return "\n".join(lines)


def _check_invariants(
    scenario_index: int,
    mode: str,
    rep,
    policy: RecoveryPolicy,
    baseline_dict: dict | None,
) -> list[Diagnostic]:
    """The RCV001-RCV004 verdicts for one completed recovery run."""
    violations: list[Diagnostic] = []
    sim = rep.sim

    # RCV002: every rollback must have restored the digest bit for bit
    if rep.restore_mismatches:
        violations.append(
            Diagnostic(
                code=RCV002,
                severity=Severity.ERROR,
                message=(
                    f"scenario {scenario_index}: {rep.restore_mismatches} "
                    "restore(s) failed to reproduce the checkpoint digest"
                ),
            )
        )

    # RCV003: a fault-free checkpointed run matches replay_schedule
    if baseline_dict is not None and sim.to_dict() != baseline_dict:
        violations.append(
            Diagnostic(
                code=RCV003,
                severity=Severity.ERROR,
                message=(
                    f"scenario {scenario_index}: fault-free checkpointed "
                    "replay diverged from replay_schedule (must be "
                    "bit-identical)"
                ),
            )
        )

    # RCV004: bounded rollback — never deeper than the checkpoint interval
    if rep.max_rollback_depth > policy.checkpoint_interval:
        violations.append(
            Diagnostic(
                code=RCV004,
                severity=Severity.ERROR,
                message=(
                    f"scenario {scenario_index}: rollback depth "
                    f"{rep.max_rollback_depth} exceeds the checkpoint "
                    f"interval {policy.checkpoint_interval}"
                ),
            )
        )

    # RCV001: no silent data loss.  Two halves: (a) every reference lands
    # in an outcome bucket, always; (b) a *recoverable* replicate run
    # keeps every datum instance a surviving replica could have saved (the
    # mode's whole point); a datum whose every copy died is accounted loss.
    if not sim.accounts_for_all_fetches():
        violations.append(
            Diagnostic(
                code=RCV001,
                severity=Severity.ERROR,
                message=(
                    f"scenario {scenario_index}: outcome buckets "
                    f"({sim.n_delivered} delivered + {sim.n_dropped} dropped "
                    f"+ {sim.n_unreachable} unreachable) do not account for "
                    f"all {sim.n_fetches} references"
                ),
            )
        )
    if mode == "replicate" and rep.recoverable and rep.n_avoidable_lost > 0:
        violations.append(
            Diagnostic(
                code=RCV001,
                severity=Severity.ERROR,
                message=(
                    f"scenario {scenario_index}: replicate-mode run lost "
                    f"{rep.n_avoidable_lost} datum instance(s) with a live "
                    "replica site despite a fully recoverable storm"
                ),
            )
        )
    return violations


def run_chaos_campaign(
    instance: PaperInstance,
    seed: int = 7,
    n_scenarios: int = 10,
    scheduler: str = "GOMCDS",
    checkpoint_interval: int = 2,
    max_node_rate: float = 0.3,
    max_drop_rate: float = 0.1,
    instrument: Instrumentation | None = None,
) -> ChaosReport:
    """Run ``n_scenarios`` seeded fault storms on ``instance`` and gate
    the invariants.

    ``scheduler`` solves the instance without its capacity plan.
    Scenario 0 is always the fault-free control (it arms the ``RCV003``
    bit-identity check); the rest sample node/link/drop rates from the
    campaign seed and alternate between the ``degrade`` and ``replicate``
    degradation modes.  The report's ``exit_code`` is 0 when every
    invariant held and 3 otherwise — the ``repro chaos`` CLI (and the CI
    ``chaos-smoke`` job) returns it verbatim.
    """
    import numpy as np

    if n_scenarios < 1:
        raise ValueError("a campaign needs at least one scenario")
    obs = resolve(instrument)
    t0 = time.perf_counter()
    workload, tensor, model = instance.workload, instance.tensor, instance.model
    schedule = scheduler_spec(scheduler)(tensor, model)
    baseline = replay_schedule(workload.trace, schedule, model)
    baseline_dict = baseline.to_dict()
    replicas = replicated_scds(tensor, model, k=2)

    report = ChaosReport(
        seed=seed,
        bench=instance.bench,
        size=instance.size,
        mesh=tuple(model.topology.shape),
        scheduler=schedule.method,
        checkpoint_interval=checkpoint_interval,
    )
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC4A05)))
    with obs.span(
        "chaos.campaign", seed=seed, n_scenarios=n_scenarios,
        bench=instance.bench,
    ):
        for i in range(n_scenarios):
            scenario_seed = int(seed * 10_000 + i)
            mode = CAMPAIGN_MODES[i % len(CAMPAIGN_MODES)]
            if i == 0:
                plan = FaultPlan()  # fault-free control scenario
            else:
                plan = FaultPlan.random(
                    model.topology,
                    tensor.n_windows,
                    node_rate=float(rng.uniform(0.05, max_node_rate)),
                    link_rate=float(rng.uniform(0.0, 0.1)),
                    drop_rate=float(rng.uniform(0.0, max_drop_rate)),
                    seed=scenario_seed,
                    max_down_fraction=0.5,
                )
            policy = RecoveryPolicy(
                mode=mode, checkpoint_interval=checkpoint_interval
            )
            with obs.span(
                "chaos.scenario", index=i, mode=mode, seed=scenario_seed
            ):
                rep = replay_with_recovery(
                    workload.trace,
                    schedule,
                    model,
                    plan,
                    tensor=tensor,
                    policy=policy,
                    replicas=replicas if mode == "replicate" else None,
                    instrument=obs,
                )
            violations = _check_invariants(
                i, mode, rep, policy, baseline_dict if i == 0 else None
            )
            obs.count("chaos.scenarios")
            obs.observe("chaos.recovery_latency_s", rep.recovery_latency_s)
            if violations:
                obs.count("chaos.violations", len(violations))
            report.scenarios.append(
                ChaosScenario(
                    index=i,
                    seed=scenario_seed,
                    mode=mode,
                    n_node_faults=len(plan.node_faults),
                    n_link_faults=len(plan.link_faults),
                    drop_rate=plan.drop_rate,
                    recoverable=rep.recoverable,
                    data_preserved=rep.data_preserved,
                    n_detections=rep.n_detections,
                    n_rollbacks=rep.n_rollbacks,
                    max_rollback_depth=rep.max_rollback_depth,
                    wasted_cost=rep.wasted_cost,
                    n_lost=rep.sim.n_lost,
                    n_unreachable=rep.sim.n_unreachable,
                    n_replica_served=rep.n_replica_served,
                    n_replica_promoted=rep.n_replica_promoted,
                    recovery_latency_s=rep.recovery_latency_s,
                    violations=tuple(violations),
                )
            )
    report.elapsed_s = time.perf_counter() - t0
    obs.gauge("chaos.exit_code", report.exit_code)
    return report
