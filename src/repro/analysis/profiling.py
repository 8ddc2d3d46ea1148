"""The ``repro profile`` runner: instrumented scheduling + replay.

Profiles the paper's benchmark suite (or an extended kernel) with a
recording :class:`~repro.obs.Instrumentation`: every scheduler runs with
phase spans (cost-tensor build, DP sweep, capacity walk), the GOMCDS
schedule is replayed hop-by-hop so per-window hop/cost metrics land in
the trace, and the analytic/replayed results ride along through the
unified ``to_dict()``/``summary()`` result protocol.  The recorded
session exports as a human summary, JSON-lines, a Chrome trace-event
file (``chrome://tracing`` / Perfetto), or Prometheus exposition text —
see ``docs/observability.md``.  Each profiled instance also drops a
``profile.instance`` event on the flight recorder, so ``repro tail``
can reconstruct what a profiling run touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import evaluate_schedule
from ..grid import Mesh2D
from ..obs import Instrumentation, active, record_event
from ..sim import replay_schedule
from ..workloads import BENCHMARK_NAMES, EXTENDED_KERNELS, paper_instance
from ..workloads.paper import PaperInstance, instance_of

__all__ = ["ProfileResult", "profile_suite", "PROFILE_SCHEDULERS"]

#: Schedulers profiled by default: the paper's three offline algorithms.
PROFILE_SCHEDULERS = ("SCDS", "LOMCDS", "GOMCDS")

#: Kernel names `repro profile --workload` accepts.  Paper kernels (the
#: building blocks of benchmarks 1-5) profile the full suite; extended
#: kernels profile that single workload.
PAPER_KERNELS = tuple(BENCHMARK_NAMES.values())


@dataclass
class ProfileResult:
    """One profile session: the instrumentation plus the result objects."""

    instrument: Instrumentation
    results: list = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)


def _profile_instance(
    name: str,
    instance: PaperInstance,
    schedulers,
    replay: bool,
    instr: Instrumentation,
    result: ProfileResult,
) -> None:
    tensor, model = instance.tensor, instance.model
    record_event(
        "profile.instance", workload=name, n_windows=tensor.n_windows
    )
    with instr.span(
        "profile.instance",
        workload=name,
        n_data=tensor.n_data,
        n_windows=tensor.n_windows,
    ):
        for sched_name in schedulers:
            sched = instance.solve(sched_name, instrument=instr)
            breakdown = evaluate_schedule(sched, tensor, model)
            result.results.append(breakdown)
            result.rows.append(
                {
                    "workload": name,
                    "scheduler": sched.method,
                    "total_cost": breakdown.total,
                    "reference_cost": breakdown.reference_cost,
                    "movement_cost": breakdown.movement_cost,
                }
            )
            if replay and sched_name == schedulers[-1]:
                report = replay_schedule(
                    instance.workload.trace,
                    sched,
                    model,
                    capacity=instance.capacity,
                    instrument=instr,
                )
                result.results.append(report)
                if not report.matches(breakdown):  # pragma: no cover
                    raise AssertionError(
                        f"replayed cost diverged from analytic cost on {name}"
                    )


def profile_suite(
    workload: str = "suite",
    benchmarks: tuple[int, ...] = (1, 2, 3, 4, 5),
    size: int = 16,
    mesh: tuple[int, int] = (4, 4),
    schedulers: tuple[str, ...] = PROFILE_SCHEDULERS,
    capacity_multiplier: float = 2.0,
    seed: int = 1998,
    replay: bool = True,
    instrument: Instrumentation | None = None,
    spatial: bool = False,
) -> ProfileResult:
    """Run an instrumented profile and return the recorded session.

    Parameters
    ----------
    workload:
        ``"suite"`` (or any paper kernel name — ``lu``, ``matsq``,
        ``code+rev``, … — since benchmarks 1-5 are built from those
        kernels) profiles the paper benchmarks given by ``benchmarks``;
        an extended kernel name (``fft``/``sor``/``floyd``/``bitonic``)
        profiles that single workload instead.
    benchmarks:
        Paper benchmark ids (1-5) profiled in suite mode.
    schedulers:
        Scheduler names to run per instance; the *last* one is replayed
        hop-by-hop when ``replay`` is true, producing the per-window
        hop/cost metrics.
    instrument:
        Recording session to append to.  ``None`` joins the active
        session (installed by the CLI's ``--metrics`` flag) when one is
        recording, else starts a fresh one.
    spatial:
        Record per-link/per-processor spatial telemetry during replays
        (``repro profile --spatial``).  Applied to whichever session is
        used, including a joined active one.
    """
    if instrument is None:
        instrument = active() if active().enabled else Instrumentation.started()
    instr = instrument
    if spatial and instr.enabled:
        instr.spatial.recording = True
    result = ProfileResult(instrument=instr)
    schedulers = tuple(schedulers)

    if workload in EXTENDED_KERNELS:
        factory, default_n = EXTENDED_KERNELS[workload]
        n = size or default_n
        instance = instance_of(
            factory(n, Mesh2D(*mesh)), workload, n, capacity_multiplier
        )
        _profile_instance(workload, instance, schedulers, replay, instr, result)
        return result
    if workload != "suite" and workload not in PAPER_KERNELS:
        known = ("suite", *PAPER_KERNELS, *EXTENDED_KERNELS)
        raise ValueError(
            f"unknown workload {workload!r}; known: {', '.join(known)}"
        )

    for bench in benchmarks:
        _profile_instance(
            f"bench{bench}:{BENCHMARK_NAMES[bench]}",
            paper_instance(bench, size, mesh, seed, capacity_multiplier),
            schedulers,
            replay,
            instr,
            result,
        )
    return result
