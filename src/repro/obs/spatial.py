"""Spatial telemetry: per-link / per-processor mesh analytics.

The span tracer and metrics registry see the *time* domain; this module
sees the *space* domain the paper optimizes — where traffic actually
flows on the 2-D mesh.  A :class:`SpatialRecorder` rides along with an
instrumented replay (or network simulation) and accumulates, per
execution window,

* the volume carried by every directed mesh link,
* per-processor send / receive volume (fetch + movement traffic), and
* per-processor resident storage volume,

then freezes into an immutable :class:`SpatialTrace` stored on the
session's :class:`SpatialStore`.  :func:`analyze_spatial` derives the
congestion analytics — max/mean channel load, load-imbalance Gini
coefficient, top-k hot links, per-window hotspot drift — and emits coded
diagnostics (``OBS001`` saturated link, ``OBS002`` imbalance above
threshold) through :mod:`repro.diagnostics`.

Recording is opt-in on top of an already-recording session
(``Instrumentation.started(spatial=True)``) because it routes every
fetch hop-by-hop, which the fast replay path deliberately avoids; it is
strictly read-only — the :class:`~repro.sim.SimReport` of an
instrumented replay stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diagnostics import OBS001, OBS002, Diagnostic, Severity, severity_exit_code
from ..grid import Link, Topology, link_key, mesh_links

__all__ = [
    "SpatialTrace",
    "SpatialRecorder",
    "SpatialStore",
    "NullSpatialStore",
    "NULL_SPATIAL_STORE",
    "SpatialReport",
    "analyze_spatial",
    "gini_coefficient",
]


def gini_coefficient(values) -> float:
    """Gini coefficient of a non-negative load vector (0 = perfectly even,
    -> 1 = all load on one element).  Zero-load vectors are perfectly even."""
    loads = np.sort(np.asarray(values, dtype=np.float64))
    if loads.size == 0:
        return 0.0
    total = loads.sum()
    if total <= 0:
        return 0.0
    n = loads.size
    ranks = np.arange(1, n + 1)
    return float(((2 * ranks - n - 1) * loads).sum() / (n * total))


@dataclass
class SpatialTrace:
    """One replay's frozen spatial telemetry.

    ``window_links[w]`` maps each directed link to the volume it carried
    during window ``w``; ``send``/``recv``/``storage`` are
    ``(n_windows, n_procs)`` volume matrices.  ``window_ts`` carries the
    tracer-clock microsecond stamp of each window's end, so exporters can
    align the series with the span timeline (Chrome ``ph:"C"`` tracks).
    """

    label: str
    shape: tuple[int, ...]
    n_procs: int
    #: every directed physical wire of the array (wrap links included on
    #: a torus), so imbalance statistics count idle wires too
    links: list[Link]
    window_ts: list[float]
    window_links: list[dict[Link, float]]
    send: np.ndarray
    recv: np.ndarray
    storage: np.ndarray

    @property
    def n_windows(self) -> int:
        return len(self.window_links)

    @property
    def n_links(self) -> int:
        return len(self.links)

    # -- aggregations --------------------------------------------------------

    def link_totals(self) -> dict[Link, float]:
        """Total volume per directed link, summed over all windows."""
        totals: dict[Link, float] = {}
        for per_window in self.window_links:
            for link, volume in per_window.items():
                totals[link] = totals.get(link, 0.0) + volume
        return totals

    @property
    def total_link_traffic(self) -> float:
        return float(sum(self.link_totals().values()))

    @property
    def max_link_load(self) -> float:
        totals = self.link_totals()
        return max(totals.values()) if totals else 0.0

    @property
    def mean_link_load(self) -> float:
        """Mean load over *all* directed wires of the array (zeros count)."""
        if self.n_links == 0:
            return 0.0
        return self.total_link_traffic / self.n_links

    def load_vector(self) -> np.ndarray:
        """Per-link loads over every physical wire, zeros included."""
        totals = self.link_totals()
        known = [totals.get(link, 0.0) for link in self.links]
        # traffic on links outside the structural set (cannot happen with
        # the x-y router) would silently vanish here; keep the sum honest
        extra = set(totals) - set(self.links)
        return np.array(known + [totals[l] for l in sorted(extra)])

    def gini(self) -> float:
        """Load-imbalance Gini coefficient over every physical wire."""
        return gini_coefficient(self.load_vector())

    def top_links(self, k: int = 5) -> list[tuple[Link, float]]:
        """The ``k`` heaviest links, descending, ties broken by link id."""
        totals = self.link_totals()
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def hotspot_drift(self) -> float:
        """Fraction of consecutive window pairs whose hottest link moved.

        A drifting hotspot (1.0) means congestion chases the computation
        across the mesh; a pinned hotspot (0.0) means one wire stays the
        bottleneck.  Windows without traffic are skipped.
        """
        hot = [
            max(links.items(), key=lambda kv: (kv[1], kv[0]))[0]
            for links in self.window_links
            if links
        ]
        if len(hot) < 2:
            return 0.0
        moved = sum(1 for a, b in zip(hot[:-1], hot[1:]) if a != b)
        return moved / (len(hot) - 1)

    def per_proc_send(self) -> np.ndarray:
        return self.send.sum(axis=0)

    def per_proc_recv(self) -> np.ndarray:
        return self.recv.sum(axis=0)

    def per_proc_peak_storage(self) -> np.ndarray:
        return self.storage.max(axis=0) if len(self.storage) else self.storage

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready record; link keys serialize as ``"r,c->r,c"``."""
        return {
            "kind": "spatial_trace",
            "label": self.label,
            "shape": list(self.shape),
            "n_procs": self.n_procs,
            "n_links": self.n_links,
            "n_windows": self.n_windows,
            "window_ts": [float(ts) for ts in self.window_ts],
            "window_links": [
                {
                    link_key(link, self.shape): float(v)
                    for link, v in sorted(per_window.items())
                }
                for per_window in self.window_links
            ],
            "link_totals": {
                link_key(link, self.shape): float(v)
                for link, v in sorted(self.link_totals().items())
            },
            "send": self.send.tolist(),
            "recv": self.recv.tolist(),
            "storage": self.storage.tolist(),
        }

    def summary(self) -> str:
        return (
            f"spatial[{self.label}]: {self.total_link_traffic:g} link volume "
            f"over {self.n_windows} windows, max link {self.max_link_load:g} "
            f"({self.max_link_load / self.mean_link_load:.1f}x mean), "
            f"gini {self.gini():.2f}"
            if self.mean_link_load > 0
            else f"spatial[{self.label}]: no link traffic recorded"
        )


class SpatialRecorder:
    """Mutable per-replay builder; ``finish()`` freezes a :class:`SpatialTrace`.

    The replay hands it the actual hop-by-hop routes it charges, so the
    recorded link volumes are exactly the wire occupancy of the run —
    including detours and retries under a fault plan.
    """

    def __init__(self, topology: Topology, n_windows: int, label: str):
        self.topology = topology
        self.label = label
        self.n_procs = topology.n_procs
        self.links = mesh_links(topology)
        self.window_links: list[dict[Link, float]] = [
            {} for _ in range(n_windows)
        ]
        self.window_ts: list[float] = [0.0] * n_windows
        self.send = np.zeros((n_windows, topology.n_procs))
        self.recv = np.zeros((n_windows, topology.n_procs))
        self.storage = np.zeros((n_windows, topology.n_procs))

    def record(self, window: int, links, volume: float) -> None:
        """Charge one routed transfer (fetch, move or evacuation)."""
        if not links:
            return
        per_window = self.window_links[window]
        for link in links:
            per_window[link] = per_window.get(link, 0.0) + volume
        self.send[window, links[0][0]] += volume
        self.recv[window, links[-1][1]] += volume

    def close_window(self, window: int, ts: float, locations, volumes) -> None:
        """Stamp the window and snapshot per-processor resident volume."""
        self.window_ts[window] = float(ts)
        self.storage[window] = np.bincount(
            np.asarray(locations), weights=volumes, minlength=self.n_procs
        )

    def finish(self) -> SpatialTrace:
        return SpatialTrace(
            label=self.label,
            shape=tuple(self.topology.shape),
            n_procs=self.n_procs,
            links=self.links,
            window_ts=self.window_ts,
            window_links=self.window_links,
            send=self.send,
            recv=self.recv,
            storage=self.storage,
        )


class SpatialStore:
    """Per-session collection of spatial traces.

    ``recording`` gates whether instrumented replays build recorders at
    all — spatial telemetry routes every fetch, so it stays off unless a
    session opts in (``Instrumentation.started(spatial=True)``,
    ``repro profile --spatial``, ``repro heatmap``).
    """

    def __init__(self, recording: bool = False):
        self.recording = recording
        self.traces: list[SpatialTrace] = []

    def add(self, trace: SpatialTrace) -> None:
        self.traces.append(trace)

    def __len__(self) -> int:
        return len(self.traces)


class NullSpatialStore:
    """Do-nothing store: the zero-overhead default on the NOOP handle."""

    __slots__ = ()

    recording = False
    traces: tuple = ()

    def add(self, trace: SpatialTrace) -> None:
        return None

    def __len__(self) -> int:
        return 0


NULL_SPATIAL_STORE = NullSpatialStore()


# ---------------------------------------------------------------------------
# Congestion analytics + coded diagnostics
# ---------------------------------------------------------------------------


@dataclass
class SpatialReport:
    """Congestion analytics over one :class:`SpatialTrace`.

    Carries the derived numbers plus any ``OBS``-coded diagnostics;
    implements the unified ``to_dict()``/``summary()`` result protocol so
    exporters embed it next to cost results.
    """

    label: str
    shape: tuple[int, ...]
    max_link_load: float
    mean_link_load: float
    gini: float
    hotspot_drift: float
    top_links: list[tuple[Link, float]]
    hotspot_factor: float
    gini_threshold: float
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """Lint-style: 0 clean, 1 warnings only, 2 errors."""
        return severity_exit_code(self.diagnostics)

    def to_dict(self) -> dict:
        return {
            "kind": "spatial_report",
            "label": self.label,
            "max_link_load": self.max_link_load,
            "mean_link_load": self.mean_link_load,
            "gini": self.gini,
            "hotspot_drift": self.hotspot_drift,
            "top_links": [
                {"link": link_key(link, self.shape), "volume": float(v)}
                for link, v in self.top_links
            ],
            "thresholds": {
                "hotspot_factor": self.hotspot_factor,
                "gini_threshold": self.gini_threshold,
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def summary(self) -> str:
        flagged = (
            f", {len(self.diagnostics)} diagnostics" if self.diagnostics else ""
        )
        return (
            f"congestion[{self.label}]: max link {self.max_link_load:g}, "
            f"mean {self.mean_link_load:g}, gini {self.gini:.2f}, "
            f"drift {self.hotspot_drift:.2f}{flagged}"
        )

    def render(self) -> str:
        lines = [self.summary()]
        for link, volume in self.top_links:
            lines.append(
                f"  hot link {link_key(link, self.shape)}: {volume:g}"
            )
        for diag in self.diagnostics:
            lines.append("  " + diag.render())
        return "\n".join(lines)


def analyze_spatial(
    trace: SpatialTrace,
    hotspot_factor: float = 4.0,
    gini_threshold: float = 0.6,
    top_k: int = 5,
) -> SpatialReport:
    """Derive congestion analytics and ``OBS``-coded diagnostics.

    ``OBS001`` (saturated link) fires for every link whose total load is
    at least ``hotspot_factor`` times the mean load over all physical
    wires; ``OBS002`` (imbalance) fires when the Gini coefficient of the
    per-wire load distribution exceeds ``gini_threshold``.  Both are
    warnings: they flag congestion the paper's hop-count metric cannot
    see, not correctness violations.
    """
    totals = trace.link_totals()
    mean = trace.mean_link_load
    gini = trace.gini()
    diagnostics: list[Diagnostic] = []
    if mean > 0:
        for link, volume in sorted(
            totals.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            if volume >= hotspot_factor * mean:
                diagnostics.append(
                    Diagnostic(
                        code=OBS001,
                        severity=Severity.WARNING,
                        message=(
                            f"saturated link {link_key(link, trace.shape)}: "
                            f"load {volume:g} is {volume / mean:.1f}x the "
                            f"mean wire load {mean:g}"
                        ),
                        processor=int(link[0]),
                        hint=(
                            "congestion-aware refinement or a different "
                            "window segmentation may spread this traffic"
                        ),
                    )
                )
    if gini > gini_threshold:
        diagnostics.append(
            Diagnostic(
                code=OBS002,
                severity=Severity.WARNING,
                message=(
                    f"link-load imbalance: gini {gini:.2f} exceeds "
                    f"threshold {gini_threshold:g} "
                    f"(traffic concentrates on few wires)"
                ),
                hint="inspect `repro heatmap` output for the hot region",
            )
        )
    return SpatialReport(
        label=trace.label,
        shape=trace.shape,
        max_link_load=trace.max_link_load,
        mean_link_load=mean,
        gini=gini,
        hotspot_drift=trace.hotspot_drift(),
        top_links=trace.top_links(top_k),
        hotspot_factor=hotspot_factor,
        gini_threshold=gini_threshold,
        diagnostics=diagnostics,
    )
