"""Online fault recovery: detect at activation, roll back, re-plan, resume.

The offline fault pipeline (:func:`~repro.sim.replay_schedule` with a
:class:`FaultPlan`, :func:`~repro.core.reschedule_around_faults`) assumes
every failure is declared before execution starts.  This module drops
that assumption: faults are *discovered* only when they activate, through
a :class:`FaultDetector` view that hides the plan's future epochs, and a
:class:`RecoveryController` keeps the run alive by

1. replaying the schedule window by window on a checkpointing
   :class:`~repro.sim.ReplayCursor`, snapshotting the simulator state
   every ``checkpoint_interval`` windows;
2. polling the detector after each window — a window executed under a
   stale fault view has *wrong* accounting (it fetched from a node that
   was silently dead), so on detection the controller rolls back to the
   last checkpoint (bounded rollback: never deeper than the interval);
3. re-planning the suffix with
   :func:`~repro.core.reschedule_from_window`, pinned to the checkpoint's
   residency, against the degraded topology known so far;
4. resuming with an escalated retry deadline (exponential backoff capped
   by ``recovery_deadline``) and a bounded recovery budget
   (``max_recoveries``; when exhausted, the controller stops rolling back
   and finishes the run against the full ground-truth plan).

What happens to references the degraded array still cannot serve is the
policy's **degradation mode**:

``strict``
    fail fast — the first unreachable reference or stranded datum raises
    :class:`RecoveryError` (so does a failed re-plan or an exhausted
    recovery budget);
``degrade``
    drop with accounting — unreachable references and stranded data are
    recorded in the :class:`~repro.sim.SimReport` buckets (and mirrored
    in the recovery report), execution continues;
``replicate``
    fall back to replicas — unreachable fetches are served from the
    nearest alive replica site of a static
    :class:`~repro.core.ReplicatedPlacement`, and stranded victims are
    promoted onto a surviving replica site instead of being lost.

Everything here is deterministic: the detector is a pure view over the
(seeded) plan, checkpoints carry content digests, and a restore is
verified against the digest it came from.  ``repro.analysis.chaos``
stress-tests these guarantees under randomized fault storms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..diagnostics import (
    FLT007,
    FLT008,
    Diagnostic,
    Severity,
    code_message,
)
from ..mem import CapacityError
from ..obs import Instrumentation, record_event, resolve
from ..schema import SCHEMA_VERSION, check_schema
from .injector import RetryPolicy
from .plan import FaultConfigError, FaultPlan, LinkFault, NodeFault

__all__ = [
    "FaultDetector",
    "RecoveryPolicy",
    "RecoveryError",
    "RecoveryEvent",
    "RecoveryReport",
    "RecoveryController",
    "replay_with_recovery",
    "RECOVERY_MODES",
]

RECOVERY_MODES = ("strict", "degrade", "replicate")


class RecoveryError(RuntimeError):
    """Online recovery could not uphold the policy's guarantees.

    Raised only in ``strict`` mode (fail fast) — the other modes turn the
    same conditions into report accounting.  Carries the partial
    :class:`RecoveryReport` accumulated before the failure when one
    exists.
    """

    def __init__(self, message: str, report: "RecoveryReport | None" = None):
        super().__init__(message)
        self.report = report


class FaultDetector:
    """Activation-time view of a ground-truth :class:`FaultPlan`.

    The controller never sees the full plan: it sees ``known_plan``, the
    faults *discovered so far* plus the plan's transient drop rate (a
    channel property, observable from the first lost message, hence known
    up front — and required so an online replay of a drops-only plan is
    bit-identical to the offline one).  :meth:`poll` discovers structural
    faults in the window they first activate; with ``assume_permanent``
    the discovered view conservatively ignores the plan's healing times
    (``end=None``), which is what a real detector — unable to see the
    future — would report.
    """

    def __init__(self, plan: FaultPlan, assume_permanent: bool = False) -> None:
        self.plan = plan
        self.assume_permanent = assume_permanent
        self._known_nodes: list[NodeFault] = []
        self._known_links: list[LinkFault] = []
        self._seen: set = set()

    def poll(self, window: int) -> tuple:
        """Structural faults newly active in ``window``; updates the view."""
        newly = []
        for f in (*self.plan.node_faults, *self.plan.link_faults):
            if f in self._seen or not f.active_in(window):
                continue
            self._seen.add(f)
            known = f
            if self.assume_permanent and f.end is not None:
                # replace() on the frozen dataclass keeps pid/src/dst/start
                kwargs = {"start": f.start, "end": None}
                if isinstance(f, NodeFault):
                    known = NodeFault(pid=f.pid, **kwargs)
                else:
                    known = LinkFault(src=f.src, dst=f.dst, **kwargs)
            if isinstance(known, NodeFault):
                self._known_nodes.append(known)
            else:
                self._known_links.append(known)
            newly.append(known)
        return tuple(newly)

    @property
    def known_plan(self) -> FaultPlan:
        """The fault plan as currently discovered (drops always included)."""
        return FaultPlan(
            node_faults=tuple(self._known_nodes),
            link_faults=tuple(self._known_links),
            drop_rate=self.plan.drop_rate,
            seed=self.plan.seed,
        )

    @property
    def n_discovered(self) -> int:
        return len(self._seen)

    def all_discovered(self) -> bool:
        """Every structural fault of the ground truth has been observed."""
        return self.n_discovered == len(self.plan.node_faults) + len(
            self.plan.link_faults
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a run detects, rewinds and degrades — the recovery contract.

    Attributes
    ----------
    mode:
        Degradation mode: ``strict`` | ``degrade`` | ``replicate``.
    checkpoint_interval:
        Windows between snapshots; also the bound on rollback depth.
        Static lint checks it as rule ``FLT007``.
    max_recoveries:
        Rollback budget; when spent, the controller stops rewinding and
        finishes against the ground-truth plan (``strict`` raises).
    backoff:
        Multiplier applied to the retry deadline after each recovery
        (escalation: a repeatedly-failing array earns more patience).
    recovery_deadline:
        Upper bound (cycles) on the escalated retry deadline.
    reschedule:
        Whether a detection triggers an incremental re-plan of the
        suffix (:func:`~repro.core.reschedule_from_window`); disable to
        measure the value of rescheduling in isolation.
    """

    mode: str = "degrade"
    checkpoint_interval: int = 4
    max_recoveries: int = 8
    backoff: float = 2.0
    recovery_deadline: float = 256.0
    reschedule: bool = True

    def __post_init__(self) -> None:
        if self.mode not in RECOVERY_MODES:
            raise FaultConfigError(
                f"unknown recovery mode {self.mode!r}; expected one of "
                f"{', '.join(RECOVERY_MODES)}"
            )
        if self.max_recoveries < 0:
            raise FaultConfigError("max_recoveries must be non-negative")
        if self.backoff < 1.0:
            raise FaultConfigError("recovery backoff base must be >= 1")
        if self.recovery_deadline < 1.0:
            raise FaultConfigError("recovery_deadline must be >= 1 cycle")

    # -- validation (shared with repro.lint's FLT007/FLT008 rules) -----------

    def config_violations(
        self,
        n_windows: int | None = None,
        has_replicas: bool | None = None,
    ):
        """Every way the policy misfits the run, as coded diagnostics.

        Mirrors :meth:`FaultPlan.config_violations`: the static lint
        rules and the dynamic :meth:`validate` gate share this generator,
        so both paths emit identical ``FLT007``/``FLT008`` messages.
        Bounds passed as ``None`` skip their half of the checks.
        """
        if self.checkpoint_interval < 1:
            yield Diagnostic(
                code=FLT007,
                severity=Severity.ERROR,
                message=(
                    f"checkpoint interval must be at least 1 window, got "
                    f"{self.checkpoint_interval}"
                ),
                hint="an interval of 1 checkpoints before every window",
            )
        elif n_windows is not None and self.checkpoint_interval > n_windows:
            yield Diagnostic(
                code=FLT007,
                severity=Severity.ERROR,
                message=(
                    f"checkpoint interval {self.checkpoint_interval} exceeds "
                    f"the schedule's {n_windows}-window horizon, so only the "
                    "initial state is ever snapshotted"
                ),
                window=n_windows - 1,
                hint="use an interval no larger than the window count",
            )
        if self.mode == "replicate" and has_replicas is False:
            yield Diagnostic(
                code=FLT008,
                severity=Severity.ERROR,
                message=(
                    "recovery mode 'replicate' requested but the run carries "
                    "no replica placement to fall back on"
                ),
                hint=(
                    "provide a ReplicatedPlacement (e.g. replicated_scds) or "
                    "use mode 'degrade'"
                ),
            )

    def validate(
        self,
        n_windows: int | None = None,
        has_replicas: bool | None = None,
    ) -> None:
        """Raise a coded :class:`FaultConfigError` on the first violation."""
        for diag in self.config_violations(n_windows, has_replicas):
            raise FaultConfigError(code_message(diag.code, diag.message))

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "checkpoint_interval": self.checkpoint_interval,
            "max_recoveries": self.max_recoveries,
            "backoff": self.backoff,
            "recovery_deadline": self.recovery_deadline,
            "reschedule": self.reschedule,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RecoveryPolicy":
        if not isinstance(payload, dict):
            raise FaultConfigError(
                f"a recovery policy must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - {
            "mode",
            "checkpoint_interval",
            "max_recoveries",
            "backoff",
            "recovery_deadline",
            "reschedule",
        }
        if unknown:
            raise FaultConfigError(
                f"unknown recovery-policy field(s): {', '.join(sorted(unknown))}"
            )
        try:
            return RecoveryPolicy(
                mode=str(payload.get("mode", "degrade")),
                checkpoint_interval=int(payload.get("checkpoint_interval", 4)),
                max_recoveries=int(payload.get("max_recoveries", 8)),
                backoff=float(payload.get("backoff", 2.0)),
                recovery_deadline=float(payload.get("recovery_deadline", 256.0)),
                reschedule=bool(payload.get("reschedule", True)),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, FaultConfigError):
                raise
            raise FaultConfigError(f"malformed recovery policy: {exc}") from exc


@dataclass(frozen=True)
class RecoveryEvent:
    """One detection → rollback → resume cycle, as the controller saw it."""

    window: int  #: window whose execution surfaced the fault(s)
    faults: tuple[str, ...]  #: human renderings of the discovered faults
    rollback_to: int  #: checkpoint window the run rewound to
    rollback_depth: int  #: windows of work discarded (<= checkpoint interval)
    rescheduled: bool  #: whether the suffix was re-planned
    wasted_cost: float  #: traffic cost of the discarded windows
    retry_deadline: int  #: escalated retry deadline after this recovery

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "faults": list(self.faults),
            "rollback_to": self.rollback_to,
            "rollback_depth": self.rollback_depth,
            "rescheduled": self.rescheduled,
            "wasted_cost": self.wasted_cost,
            "retry_deadline": self.retry_deadline,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RecoveryEvent":
        return RecoveryEvent(
            window=int(payload["window"]),
            faults=tuple(str(f) for f in payload.get("faults", [])),
            rollback_to=int(payload["rollback_to"]),
            rollback_depth=int(payload["rollback_depth"]),
            rescheduled=bool(payload["rescheduled"]),
            wasted_cost=float(payload["wasted_cost"]),
            retry_deadline=int(payload["retry_deadline"]),
        )


@dataclass
class RecoveryReport:
    """What an online-recovery run did, on top of the replay's own report.

    ``sim`` is the final :class:`~repro.sim.SimReport` of the surviving
    timeline (rolled-back windows are *not* in it — their cost is
    accounted here as ``wasted_cost``).
    """

    sim: object  # SimReport; untyped to keep this module import-light
    mode: str
    checkpoint_interval: int
    events: list[RecoveryEvent] = field(default_factory=list)
    n_detections: int = 0
    n_rollbacks: int = 0
    windows_replayed: int = 0
    max_rollback_depth: int = 0
    wasted_cost: float = 0.0
    n_replica_served: int = 0
    n_replica_promoted: int = 0
    n_degraded_refs: int = 0
    n_degraded_lost: int = 0
    reschedule_failures: int = 0
    restore_mismatches: int = 0
    budget_exhausted: bool = False
    recovery_latency_s: float = 0.0

    @property
    def recoverable(self) -> bool:
        """The controller upheld its own machinery end to end."""
        return (
            self.reschedule_failures == 0
            and self.restore_mismatches == 0
            and not self.budget_exhausted
        )

    @property
    def data_preserved(self) -> bool:
        """No reference went unserved and no datum instance was lost."""
        return (
            self.sim.n_unreachable == 0
            and self.sim.n_lost == 0
            and self.sim.n_dropped == 0
        )

    def to_dict(self) -> dict:
        return {
            "kind": "recovery_report",
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "checkpoint_interval": self.checkpoint_interval,
            "n_detections": self.n_detections,
            "n_rollbacks": self.n_rollbacks,
            "windows_replayed": self.windows_replayed,
            "max_rollback_depth": self.max_rollback_depth,
            "wasted_cost": self.wasted_cost,
            "n_replica_served": self.n_replica_served,
            "n_replica_promoted": self.n_replica_promoted,
            "n_degraded_refs": self.n_degraded_refs,
            "n_degraded_lost": self.n_degraded_lost,
            "reschedule_failures": self.reschedule_failures,
            "restore_mismatches": self.restore_mismatches,
            "budget_exhausted": self.budget_exhausted,
            "recoverable": self.recoverable,
            "data_preserved": self.data_preserved,
            "recovery_latency_s": self.recovery_latency_s,
            "events": [e.to_dict() for e in self.events],
            "sim": self.sim.to_dict(),
        }

    @staticmethod
    def from_dict(payload: dict) -> "RecoveryReport":
        """Inverse of :meth:`to_dict` (with schema-version checking).

        The nested ``sim`` block is loaded through
        :meth:`~repro.sim.SimReport.from_dict`, so its version is
        checked too; derived flags (``recoverable``, ``data_preserved``)
        are recomputed rather than trusted.
        """
        from ..sim import SimReport

        check_schema(payload, "recovery_report")
        return RecoveryReport(
            sim=SimReport.from_dict(payload["sim"]),
            mode=str(payload["mode"]),
            checkpoint_interval=int(payload["checkpoint_interval"]),
            events=[
                RecoveryEvent.from_dict(e) for e in payload.get("events", [])
            ],
            n_detections=int(payload["n_detections"]),
            n_rollbacks=int(payload["n_rollbacks"]),
            windows_replayed=int(payload["windows_replayed"]),
            max_rollback_depth=int(payload["max_rollback_depth"]),
            wasted_cost=float(payload["wasted_cost"]),
            n_replica_served=int(payload["n_replica_served"]),
            n_replica_promoted=int(payload["n_replica_promoted"]),
            n_degraded_refs=int(payload["n_degraded_refs"]),
            n_degraded_lost=int(payload["n_degraded_lost"]),
            reschedule_failures=int(payload["reschedule_failures"]),
            restore_mismatches=int(payload["restore_mismatches"]),
            budget_exhausted=bool(payload["budget_exhausted"]),
            recovery_latency_s=float(payload["recovery_latency_s"]),
        )

    def summary(self) -> str:
        line = (
            f"recovery[{self.mode}]: {self.n_detections} detections, "
            f"{self.n_rollbacks} rollbacks ({self.windows_replayed} windows "
            f"replayed, max depth {self.max_rollback_depth}), "
            f"wasted {self.wasted_cost:g}"
        )
        if self.n_replica_served or self.n_replica_promoted:
            line += (
                f", replicas served {self.n_replica_served} / promoted "
                f"{self.n_replica_promoted}"
            )
        if not self.recoverable:
            line += ", NOT RECOVERABLE"
        return line + " | " + self.sim.summary()


class RecoveryController:
    """Drive a checkpointed replay to completion under online detection.

    Parameters
    ----------
    trace, schedule, model:
        The run, exactly as :func:`~repro.sim.replay_schedule` takes it.
    plan:
        The *ground-truth* fault plan (what actually happens to the
        machine); the controller only ever acts on what the detector has
        discovered from it.
    tensor:
        Reference tensor used for incremental re-planning; required when
        ``policy.reschedule`` is on.
    replicas:
        Static replica sites (a :class:`~repro.core.ReplicatedPlacement`
        or a raw ``replicas``-style tuple-of-tuples); required by the
        ``replicate`` mode (rule ``FLT008``).
    """

    def __init__(
        self,
        trace,
        schedule,
        model,
        plan: FaultPlan,
        tensor=None,
        policy: RecoveryPolicy | None = None,
        capacity=None,
        retry: RetryPolicy | None = None,
        replicas=None,
        detector: FaultDetector | None = None,
        evacuate: bool = True,
        track_links: bool = False,
        instrument: Instrumentation | None = None,
    ) -> None:
        self.policy = policy or RecoveryPolicy()
        self.policy.validate(
            n_windows=schedule.n_windows,
            has_replicas=replicas is not None,
        )
        if self.policy.reschedule and tensor is None:
            raise FaultConfigError(
                "policy.reschedule is on but no reference tensor was given; "
                "pass tensor= or a policy with reschedule=False"
            )
        plan.validate_for(model.topology, schedule.n_windows)
        self.trace = trace
        self.schedule = schedule
        self.model = model
        self.tensor = tensor
        self.plan = plan
        self.capacity = capacity
        self.base_retry = retry or RetryPolicy()
        self.detector = detector or FaultDetector(plan)
        self.evacuate = evacuate
        self.track_links = track_links
        self._obs = resolve(instrument)
        self._replicas = (
            None if replicas is None else getattr(replicas, "replicas", replicas)
        )
        self.report = RecoveryReport(
            sim=None,
            mode=self.policy.mode,
            checkpoint_interval=self.policy.checkpoint_interval,
        )
        self._recoveries_used = 0
        self._polling = True

    # -- degradation-mode hooks (installed on the cursor) --------------------

    def _on_unreachable(self, w, event, d, p, volume, router, alive) -> bool:
        mode = self.policy.mode
        if mode == "strict":
            raise RecoveryError(
                f"strict recovery: datum {d} unreachable from processor {p} "
                f"at window {w}",
                report=self.report,
            )
        if mode == "replicate" and self._replicas is not None and alive[p]:
            route = self._best_replica_route(d, p, router, alive)
            if route is not None:
                from ..sim.replay import _attempt_fetch

                self.report.n_replica_served += 1
                self._obs.count("recovery.replica_served")
                _attempt_fetch(
                    self._cursor.report,
                    self._cursor.retry,
                    self._cursor.injector,
                    w,
                    event,
                    route,
                    volume,
                    self.track_links,
                )
                return True
        self.report.n_degraded_refs += 1
        self._obs.count("recovery.degraded_refs")
        return False  # fall through to the standard unreachable record

    def _on_stranded(self, datum, src, w) -> bool:
        mode = self.policy.mode
        if mode == "strict":
            raise RecoveryError(
                f"strict recovery: datum {datum} stranded on dead processor "
                f"{src} at window {w}",
                report=self.report,
            )
        if mode == "replicate" and self._replicas is not None:
            alive = self._cursor.injector.alive_mask(w)
            for site in self._replicas[datum]:
                site = int(site)
                if not alive[site] or site == src:
                    continue
                try:
                    self._cursor.machine.relocate(datum, src, site)
                except CapacityError:
                    continue
                self.report.n_replica_promoted += 1
                self._obs.count("recovery.replica_promoted")
                return True
        self.report.n_degraded_lost += 1
        self._obs.count("recovery.degraded_lost")
        return False  # fall through to the standard loss record

    def _best_replica_route(self, d, p, router, alive):
        """Shortest surviving route from an alive replica site of ``d``."""
        best = None
        for site in self._replicas[d]:
            site = int(site)
            if not alive[site]:
                continue
            route = router.route(site, p)
            if route is not None and (best is None or len(route) < len(best)):
                best = route
        return best

    # -- the recovery loop ---------------------------------------------------

    def run(self) -> RecoveryReport:
        """Replay to completion; returns the filled :class:`RecoveryReport`.

        In ``strict`` mode any un-recoverable condition raises
        :class:`RecoveryError` (carrying the partial report) instead.
        """
        from ..sim import ReplayCursor

        policy = self.policy
        t0 = time.perf_counter()
        with self._obs.span(
            "recovery.run",
            mode=policy.mode,
            checkpoint_interval=policy.checkpoint_interval,
            n_windows=self.schedule.n_windows,
        ):
            cursor = ReplayCursor(
                self.trace,
                self.schedule,
                self.model,
                capacity=self.capacity,
                faults=self.detector.known_plan,
                retry=self.base_retry,
                evacuate=self.evacuate,
                track_links=self.track_links,
                on_unreachable=self._on_unreachable,
                on_stranded=self._on_stranded,
            )
            self._cursor = cursor
            last_ckpt = cursor.snapshot()
            while not cursor.done:
                w = cursor.window
                if self._polling and w % policy.checkpoint_interval == 0:
                    with self._obs.span("recovery.checkpoint", window=w):
                        last_ckpt = cursor.snapshot()
                cursor.step()
                if not self._polling:
                    continue
                newly = self.detector.poll(w)
                if newly:
                    self._recover(cursor, last_ckpt, w, newly)
            self.report.sim = cursor.finish()
            self.report.recovery_latency_s = time.perf_counter() - t0
            self._obs.gauge("recovery.rollbacks", self.report.n_rollbacks)
            self._obs.gauge("recovery.wasted_cost", self.report.wasted_cost)
            self._obs.observe(
                "recovery.latency_s", self.report.recovery_latency_s
            )
            return self.report

    def _recover(self, cursor, ckpt, window: int, newly) -> None:
        """One detection: rewind, re-plan the suffix, escalate, resume."""
        policy = self.policy
        report = self.report
        report.n_detections += 1
        self._obs.count("recovery.detections")
        if self._recoveries_used >= policy.max_recoveries:
            # budget spent: stop rewinding, finish against ground truth
            report.budget_exhausted = True
            self._obs.count("recovery.budget_exhausted")
            if policy.mode == "strict":
                raise RecoveryError(
                    f"strict recovery: budget of {policy.max_recoveries} "
                    f"recoveries exhausted at window {window}",
                    report=report,
                )
            self._polling = False
            cursor.rebind(faults=self.plan)
            return
        self._recoveries_used += 1

        wasted = cursor.report.degraded_cost - ckpt.report.degraded_cost
        depth = cursor.window - ckpt.window
        with self._obs.span(
            "recovery.rollback", window=window, to_window=ckpt.window
        ):
            cursor.restore(ckpt)
            if cursor.state_digest() != ckpt.digest:
                report.restore_mismatches += 1
                self._obs.count("recovery.restore_mismatch")
        report.n_rollbacks += 1
        report.windows_replayed += depth
        report.max_rollback_depth = max(report.max_rollback_depth, depth)
        report.wasted_cost += wasted
        self._obs.observe("recovery.rollback_depth", depth)

        known = self.detector.known_plan
        rescheduled = False
        if policy.reschedule:
            from ..core.reschedule import reschedule_from_window

            try:
                with self._obs.span(
                    "recovery.reschedule", from_window=ckpt.window
                ):
                    self.schedule = reschedule_from_window(
                        self.schedule,
                        self.tensor,
                        self.model,
                        known,
                        ckpt.window,
                        placement=ckpt.locations,
                        capacity=self.capacity,
                        instrument=self._obs,
                    )
                rescheduled = True
            except CapacityError as exc:
                report.reschedule_failures += 1
                self._obs.count("recovery.reschedule_failure")
                if policy.mode == "strict":
                    raise RecoveryError(
                        f"strict recovery: re-plan from window {ckpt.window} "
                        f"failed: {exc}",
                        report=report,
                    ) from exc
        cursor.rebind(schedule=self.schedule, faults=known)
        escalated = int(
            min(
                policy.recovery_deadline,
                self.base_retry.deadline
                * policy.backoff**self._recoveries_used,
            )
        )
        escalated = max(1, escalated)
        cursor.retry = RetryPolicy(
            deadline=escalated,
            max_retries=self.base_retry.max_retries,
            backoff=self.base_retry.backoff,
        )
        report.events.append(
            RecoveryEvent(
                window=window,
                faults=tuple(str(f) for f in newly),
                rollback_to=ckpt.window,
                rollback_depth=depth,
                rescheduled=rescheduled,
                wasted_cost=float(wasted),
                retry_deadline=escalated,
            )
        )
        record_event(
            "recovery.rollback",
            window=window,
            rollback_to=ckpt.window,
            rollback_depth=depth,
            faults=len(newly),
            rescheduled=rescheduled,
        )


def replay_with_recovery(
    trace,
    schedule,
    model,
    plan: FaultPlan,
    tensor=None,
    policy: RecoveryPolicy | None = None,
    capacity=None,
    retry: RetryPolicy | None = None,
    replicas=None,
    evacuate: bool = True,
    track_links: bool = False,
    instrument: Instrumentation | None = None,
) -> RecoveryReport:
    """One-call online recovery run; see :class:`RecoveryController`."""
    return RecoveryController(
        trace,
        schedule,
        model,
        plan,
        tensor=tensor,
        policy=policy,
        capacity=capacity,
        retry=retry,
        replicas=replicas,
        evacuate=evacuate,
        track_links=track_links,
        instrument=instrument,
    ).run()
