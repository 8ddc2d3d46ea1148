"""The four pimbench workloads: their inputs, one timed op, and its checks.

Each workload loads one layer of the scheduling pipeline heavily and
leaves the others idle, so a change to that layer shows end to end while
the other workloads predict no change:

* ``paper-constrained`` — the per-datum capacity walk (SCDS, LOMCDS and
  GOMCDS at size 32 under the paper's 2x-minimum memory rule);
* ``dp-unconstrained-8x8`` — the ``(D, m, m)`` min-plus DP sweep and the
  m=64 cost tensor (GOMCDS without capacity, so the walk is bypassed);
* ``pipeline-certify`` — the whole user path, dominated by the verifier;
* ``batch-engine`` — hashing, dedup, the solve cache and the process pool
  of ``schedule_many`` around small solves.

Only the public API is called.  Every workload solves one round of
distinct instances in its warm-up; those results are the reference every
later op must reproduce, and at the pinned seed they must also match
``expected.json``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from repro import (
    CapacityPlan,
    CostModel,
    FaultPlan,
    Mesh2D,
    NodeFault,
    ScheduleRequest,
    SolveCache,
    benchmark,
    evaluate_schedule,
    replay_schedule,
    reschedule_around_faults,
    schedule,
    schedule_many,
)
from repro.obs import NOOP
from repro.verify import certify_schedule

BENCHMARKS = (1, 2, 3, 4, 5)
SCHEDULERS = ("scds", "lomcds", "gomcds")
PIN_SEED = 1998


@dataclass
class Instance:
    """One distinct solve of a round, with its warm-up reference result."""

    bench: int
    algorithm: str
    workload: object
    tensor: object
    model: object
    capacity: object
    plan: object = None  # a FaultPlan for the faulted pipeline op
    schedule: object = None
    cost: float | None = None
    sim: object = None
    report: object = None

    @property
    def key(self) -> str:
        variant = "healthy" if self.plan is None else "faulted"
        return f"b{self.bench}/{self.algorithm}/{variant}"


@dataclass
class Outcome:
    """What one op returned, for its checks."""

    schedules: list
    cost: float | None = None
    sim: object = None
    report: object = None


class Workload:
    """Base: a round of distinct instances solved in a closed loop.

    ``calls`` collects the wall time of each public call the harness
    makes, keyed by layer; in a traced pass the same calls are also
    recorded as ``pimbench.*`` spans.
    """

    name = ""
    default_ops = 0

    def __init__(self, seed: int, pins: dict | None):
        self.seed = seed
        self.pins = pins if seed == PIN_SEED else None
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.instances: list[Instance] = []
        self.setup_failures: list[str] = []

    # -- helpers -----------------------------------------------------------

    def call(self, obs, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as one timed call into ``layer``."""
        with obs.span(f"pimbench.{layer}"):
            start = perf_counter_ns()
            out = fn(*args, **kwargs)
            self.calls[layer].append((perf_counter_ns() - start) / 1e6)
        return out

    def build(self, bench: int, n: int, topology, seed: int):
        workload = self.call(
            NOOP, "build", benchmark, bench, n, topology, seed=seed
        )
        tensor = self.call(NOOP, "reference_tensor", workload.reference_tensor)
        return workload, tensor

    def check_pins(self) -> None:
        """At the pinned seed, every warm-up cost must equal its pin."""
        if self.pins is None:
            return
        got = {inst.key: inst.cost for inst in self.instances}
        if got != self.pins:
            self.setup_failures.append(
                f"{self.name}: costs differ from expected.json: {got}"
            )

    @property
    def config(self) -> dict:
        """The workload's definition; hashed to pair comparable runs."""
        raise NotImplementedError

    @property
    def round_len(self) -> int:
        return len(self.instances)

    def setup(self) -> None:
        raise NotImplementedError

    def make_op(self, index: int):
        """The op at closed-loop position ``index`` (built outside timing)."""
        return self.instances[index % len(self.instances)]

    def run(self, op, obs) -> Outcome:
        """The timed op: what a caller waits for."""
        raise NotImplementedError

    def check(self, op, outcome: Outcome) -> str | None:
        """Why the op's result is wrong, or ``None``."""
        if not np.array_equal(outcome.schedules[0].centers, op.schedule.centers):
            return f"{op.key}: centers differ from the warm-up solve"
        return None

    def post_check(self) -> dict[int, str]:
        """Checks made after timing: failing op index -> reason."""
        return {}


class SolveWorkload(Workload):
    """One ``schedule()`` call per op over a fixed round of instances."""

    mesh = (4, 4)
    size = 0
    schedulers: tuple[str, ...] = ()
    constrained = True

    @property
    def config(self) -> dict:
        return {
            "mesh": list(self.mesh),
            "size": self.size,
            "benchmarks": list(BENCHMARKS),
            "schedulers": list(self.schedulers),
            "capacity": "paper_rule" if self.constrained else None,
        }

    def setup(self) -> None:
        topology = Mesh2D(*self.mesh)
        model = CostModel(topology)
        for bench in BENCHMARKS:
            workload, tensor = self.build(bench, self.size, topology, self.seed)
            capacity = (
                CapacityPlan.paper_rule(workload.n_data, topology.n_procs)
                if self.constrained
                else None
            )
            for algorithm in self.schedulers:
                inst = Instance(bench, algorithm, workload, tensor, model, capacity)
                inst.schedule = self.run(inst, NOOP).schedules[0]
                inst.cost = self.call(
                    NOOP, "evaluate", evaluate_schedule,
                    inst.schedule, tensor, model,
                ).total
                self.instances.append(inst)
        self.check_pins()

    def run(self, op, obs) -> Outcome:
        solved = self.call(
            obs, f"solve.{op.algorithm}", schedule, op.tensor, op.model,
            algorithm=op.algorithm, capacity=op.capacity, instrument=obs,
        )
        return Outcome([solved])


class PaperConstrained(SolveWorkload):
    name = "paper-constrained"
    default_ops = 180
    size = 32
    schedulers = SCHEDULERS


class DPUnconstrained(SolveWorkload):
    name = "dp-unconstrained-8x8"
    default_ops = 200
    mesh = (8, 8)
    size = 16
    schedulers = ("gomcds",)
    constrained = False


class PipelineCertify(Workload):
    """reference tensor -> certified solve -> evaluate -> replay -> certify,
    healthy and with one node fault per benchmark."""

    name = "pipeline-certify"
    default_ops = 150
    size = 16

    @property
    def config(self) -> dict:
        return {
            "mesh": [4, 4],
            "size": self.size,
            "benchmarks": list(BENCHMARKS),
            "schedulers": ["gomcds"],
            "capacity": "paper_rule",
            "faults": "one node per benchmark, drawn from the seed",
        }

    def setup(self) -> None:
        topology = Mesh2D(4, 4)
        model = CostModel(topology)
        rng = random.Random(self.seed)
        faulted = []
        for bench in BENCHMARKS:
            workload, tensor = self.build(bench, self.size, topology, self.seed)
            capacity = CapacityPlan.paper_rule(workload.n_data, topology.n_procs)
            fault = NodeFault(
                pid=rng.randrange(topology.n_procs),
                start=rng.randrange(1, tensor.n_windows),
            )
            self.instances.append(
                Instance(bench, "gomcds", workload, tensor, model, capacity)
            )
            faulted.append(
                Instance(
                    bench, "gomcds", workload, tensor, model, capacity,
                    plan=FaultPlan(node_faults=(fault,)),
                )
            )
        self.instances.extend(faulted)
        for inst in self.instances:
            outcome = self.run(inst, NOOP)
            inst.schedule = outcome.schedules[0]
            inst.cost, inst.sim, inst.report = (
                outcome.cost, outcome.sim, outcome.report
            )
            reason = self._check_outcome(inst, outcome)
            if reason is not None:
                self.setup_failures.append(reason)
        self.check_pins()

    def run(self, op, obs) -> Outcome:
        tensor = self.call(obs, "reference_tensor", op.workload.reference_tensor)
        trace, model, capacity, plan = (
            op.workload.trace, op.model, op.capacity, op.plan
        )
        if plan is None:
            solved = self.call(
                obs, "solve.gomcds", schedule, tensor, model,
                capacity=capacity, certify=True, instrument=obs,
            )
        else:
            solved = self.call(
                obs, "reschedule", reschedule_around_faults, tensor, model,
                plan, capacity, certify=True, instrument=obs,
            )
        cost = self.call(obs, "evaluate", evaluate_schedule, solved, tensor, model)
        sim = self.call(
            obs, "replay", replay_schedule, trace, solved, model,
            capacity=capacity, faults=plan, instrument=obs,
        )
        report = self.call(
            obs, "certify", certify_schedule, solved, trace, model,
            tensor=tensor, capacity=capacity, faults=plan, instrument=obs,
        )
        return Outcome([solved], cost.total, sim, report)

    def _check_outcome(self, op, outcome: Outcome) -> str | None:
        if outcome.report.exit_code >= 2 or outcome.report.diverged:
            return f"{op.key}: certify exit code {outcome.report.exit_code}"
        if op.plan is None and outcome.sim.total_cost != outcome.cost:
            return (
                f"{op.key}: replay cost {outcome.sim.total_cost} != "
                f"analytic cost {outcome.cost}"
            )
        return None

    def check(self, op, outcome: Outcome) -> str | None:
        reason = self._check_outcome(op, outcome) or super().check(op, outcome)
        if reason is None and outcome.cost != op.cost:
            reason = f"{op.key}: cost {outcome.cost} != warm-up cost {op.cost}"
        return reason


@dataclass
class Batch:
    index: int
    requests: list
    fresh: list  # the benchmark 3-5 instances, new to the cache


class BatchEngine(Workload):
    """``schedule_many(workers=2)`` over 30 requests per batch.

    Benchmarks 1-2 repeat their content every batch (cache reads);
    benchmarks 3-5 take the fresh seed ``seed + 1 + index`` (misses, puts
    and, once the LRU is full, evictions).  Every request is duplicated,
    so half of each batch is deduplicated.
    """

    name = "batch-engine"
    default_ops = 150
    size = 8
    workers = 2
    cache_size = 64
    sample_size = 20

    def __init__(self, seed: int, pins: dict | None):
        super().__init__(seed, pins)
        self.topology = Mesh2D(4, 4)
        self.model = CostModel(self.topology)
        self.cache = SolveCache(maxsize=self.cache_size)
        self.rng = random.Random(seed)
        self.seen = 0
        self.sample: list[tuple[int, Instance, object]] = []

    @property
    def config(self) -> dict:
        return {
            "mesh": [4, 4],
            "size": self.size,
            "benchmarks": list(BENCHMARKS),
            "schedulers": list(SCHEDULERS),
            "capacity": "paper_rule",
            "workers": self.workers,
            "cache_maxsize": self.cache_size,
            "requests_per_batch": 2 * len(BENCHMARKS) * len(SCHEDULERS),
        }

    @property
    def round_len(self) -> int:
        return 1

    def _instances(self, bench: int, seed: int) -> list[Instance]:
        workload, tensor = self.build(bench, self.size, self.topology, seed)
        capacity = CapacityPlan.paper_rule(workload.n_data, self.topology.n_procs)
        return [
            Instance(bench, algorithm, workload, tensor, self.model, capacity)
            for algorithm in SCHEDULERS
        ]

    def setup(self) -> None:
        # benchmarks 1-2 are the repeated content of every batch; the
        # warm-up batch (index -1) builds benchmarks 3-5 at the seed itself
        self.repeated = [
            inst for bench in (1, 2) for inst in self._instances(bench, self.seed)
        ]
        warm = self.make_op(-1)
        outcome = self.run(warm, NOOP)
        for inst, solved in zip(self.repeated + warm.fresh, outcome.schedules[::2]):
            inst.schedule = solved
            inst.cost = self.call(
                NOOP, "evaluate", evaluate_schedule, solved, inst.tensor, self.model
            ).total
            self.instances.append(inst)
        self.check_pins()

    def make_op(self, index: int) -> Batch:
        fresh = [
            inst
            for bench in BENCHMARKS[2:]
            for inst in self._instances(bench, self.seed + 1 + index)
        ]
        requests = []
        for inst in self.repeated + fresh:
            request = ScheduleRequest(
                inst.tensor, inst.model, capacity=inst.capacity,
                algorithm=inst.algorithm, label=inst.key,
            )
            self.call(NOOP, "solve_key", request.solve_key)
            requests += [request, request]
        return Batch(index, requests, fresh)

    def run(self, op, obs) -> Outcome:
        solved = self.call(
            obs, "schedule_many", schedule_many, op.requests,
            workers=self.workers, cache=self.cache, instrument=obs,
        )
        return Outcome(solved)

    def check(self, op, outcome: Outcome) -> str | None:
        schedules = outcome.schedules
        if len(schedules) != len(op.requests):
            return f"batch {op.index}: {len(schedules)} results"
        for first, second in zip(schedules[::2], schedules[1::2]):
            if not np.array_equal(first.centers, second.centers):
                return f"batch {op.index}: duplicate requests differ"
        for inst, solved in zip(self.repeated, schedules[::2]):
            if not np.array_equal(solved.centers, inst.schedule.centers):
                return f"batch {op.index}: cached {inst.key} differs"
        unique = schedules[::2][len(self.repeated):]
        for inst, solved in zip(op.fresh, unique):
            # reservoir sampling keeps memory flat however long the run
            self.seen += 1
            item = (op.index, inst, solved)
            if len(self.sample) < self.sample_size:
                self.sample.append(item)
            else:
                slot = self.rng.randrange(self.seen)
                if slot < self.sample_size:
                    self.sample[slot] = item
        return None

    def post_check(self) -> dict[int, str]:
        """Re-solve the seeded sample of fresh requests inline."""
        failed = {}
        for index, inst, solved in self.sample:
            inline = self.call(
                NOOP, f"solve.{inst.algorithm}", schedule, inst.tensor,
                inst.model, algorithm=inst.algorithm, capacity=inst.capacity,
            )
            if not np.array_equal(inline.centers, solved.centers):
                failed[index] = f"batch {index}: {inst.key} differs inline"
        return failed


WORKLOADS = {
    cls.name: cls
    for cls in (PaperConstrained, DPUnconstrained, PipelineCertify, BatchEngine)
}
