"""Golden digests: the replay's whole observable surface, pinned bit for bit.

Every way a schedule is executed is hashed here: ``replay_schedule`` on
benchmarks 1-5 (size 8, 4x4 mesh, GOMCDS under the paper's capacity
rule) crossed with three fault settings, link tracking on and off, and
three observability sessions (dark, recording, recording with spatial
telemetry); a bare ``ReplayCursor`` run with its mid-run snapshot; and
one online-recovery run.  Each case pins the ``SimReport``, every span's
name, depth and attributes, every counter, gauge and histogram sample,
and the spatial traces.  Wall-clock fields (span times, histogram and
spatial ``window_ts`` stamps, recovery latency) are the only
nondeterministic values and are left out.  Restructuring the replay
must leave every digest unchanged.
"""

import hashlib
import json

import pytest

from repro.core import CostModel, gomcds
from repro.faults import FaultPlan, NodeFault, replay_with_recovery
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.obs import Instrumentation
from repro.sim import ReplayCursor, replay_schedule
from repro.workloads import benchmark as make_benchmark

BENCHES = (1, 2, 3, 4, 5)
FAULTS = ("none", "node", "random")
SESSIONS = ("dark", "recording", "spatial")

#: "bench faults track_links session" -> report, spans, metrics, spatial.
GOLDEN_TABLE = """
1 none   0 dark      65d860266071 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
1 none   0 recording 65d860266071 18de1635372a 8e477068544a 4f53cda18c2b
1 none   0 spatial   65d860266071 18de1635372a 8e477068544a 7e823e2c2983
1 none   1 dark      54dad8336701 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
1 none   1 recording 54dad8336701 18de1635372a 8e477068544a 4f53cda18c2b
1 none   1 spatial   54dad8336701 18de1635372a 8e477068544a 7e823e2c2983
1 node   0 dark      7616cf38d525 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
1 node   0 recording 7616cf38d525 b49b7fec8e21 c06ac6998c45 4f53cda18c2b
1 node   0 spatial   7616cf38d525 b49b7fec8e21 c06ac6998c45 ee11a8de98d6
1 node   1 dark      3cecdb99baa9 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
1 node   1 recording 3cecdb99baa9 b49b7fec8e21 c06ac6998c45 4f53cda18c2b
1 node   1 spatial   3cecdb99baa9 b49b7fec8e21 c06ac6998c45 ee11a8de98d6
1 random 0 dark      ef33cd52fa44 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
1 random 0 recording ef33cd52fa44 e271b144351b f28141624698 4f53cda18c2b
1 random 0 spatial   ef33cd52fa44 e271b144351b f28141624698 b251f5b454cf
1 random 1 dark      c62cc9631264 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
1 random 1 recording c62cc9631264 e271b144351b f28141624698 4f53cda18c2b
1 random 1 spatial   c62cc9631264 e271b144351b f28141624698 b251f5b454cf
2 none   0 dark      903955f49b60 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
2 none   0 recording 903955f49b60 9e45c0129879 30c233f443b0 4f53cda18c2b
2 none   0 spatial   903955f49b60 9e45c0129879 30c233f443b0 4419b0b42820
2 none   1 dark      aa556bcb51b6 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
2 none   1 recording aa556bcb51b6 9e45c0129879 30c233f443b0 4f53cda18c2b
2 none   1 spatial   aa556bcb51b6 9e45c0129879 30c233f443b0 4419b0b42820
2 node   0 dark      5a86383dec93 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
2 node   0 recording 5a86383dec93 6f751dfe5bda 9a6f671a910d 4f53cda18c2b
2 node   0 spatial   5a86383dec93 6f751dfe5bda 9a6f671a910d f2b80bec5ac7
2 node   1 dark      8d22f85b79fa 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
2 node   1 recording 8d22f85b79fa 6f751dfe5bda 9a6f671a910d 4f53cda18c2b
2 node   1 spatial   8d22f85b79fa 6f751dfe5bda 9a6f671a910d f2b80bec5ac7
2 random 0 dark      5c24934dbef0 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
2 random 0 recording 5c24934dbef0 782cee2821f7 27088266dc53 4f53cda18c2b
2 random 0 spatial   5c24934dbef0 782cee2821f7 27088266dc53 b3d85b6cf540
2 random 1 dark      ffa4153c74db 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
2 random 1 recording ffa4153c74db 782cee2821f7 27088266dc53 4f53cda18c2b
2 random 1 spatial   ffa4153c74db 782cee2821f7 27088266dc53 b3d85b6cf540
3 none   0 dark      fcd904de3c84 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
3 none   0 recording fcd904de3c84 8e99bed06581 6087864a2dcd 4f53cda18c2b
3 none   0 spatial   fcd904de3c84 8e99bed06581 6087864a2dcd a817a6d601e2
3 none   1 dark      595b4502d6fd 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
3 none   1 recording 595b4502d6fd 8e99bed06581 6087864a2dcd 4f53cda18c2b
3 none   1 spatial   595b4502d6fd 8e99bed06581 6087864a2dcd a817a6d601e2
3 node   0 dark      a3e87ed9b809 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
3 node   0 recording a3e87ed9b809 4b5c89760a0f 140d25582c40 4f53cda18c2b
3 node   0 spatial   a3e87ed9b809 4b5c89760a0f 140d25582c40 edb17a029410
3 node   1 dark      894dada1920e 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
3 node   1 recording 894dada1920e 4b5c89760a0f 140d25582c40 4f53cda18c2b
3 node   1 spatial   894dada1920e 4b5c89760a0f 140d25582c40 edb17a029410
3 random 0 dark      4d9435fd180b 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
3 random 0 recording 4d9435fd180b 68d98dee8952 11dc584f000f 4f53cda18c2b
3 random 0 spatial   4d9435fd180b 68d98dee8952 11dc584f000f 767602f1c981
3 random 1 dark      3eb0e3b4e832 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
3 random 1 recording 3eb0e3b4e832 68d98dee8952 11dc584f000f 4f53cda18c2b
3 random 1 spatial   3eb0e3b4e832 68d98dee8952 11dc584f000f 767602f1c981
4 none   0 dark      e28f36ec226c 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
4 none   0 recording e28f36ec226c d11317163f54 7100586c5f9e 4f53cda18c2b
4 none   0 spatial   e28f36ec226c d11317163f54 7100586c5f9e 40f613b4f352
4 none   1 dark      b6cabd6d8364 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
4 none   1 recording b6cabd6d8364 d11317163f54 7100586c5f9e 4f53cda18c2b
4 none   1 spatial   b6cabd6d8364 d11317163f54 7100586c5f9e 40f613b4f352
4 node   0 dark      e6fa76f5b790 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
4 node   0 recording e6fa76f5b790 6e1c71ff7f85 97f0f197add3 4f53cda18c2b
4 node   0 spatial   e6fa76f5b790 6e1c71ff7f85 97f0f197add3 9344bad16e92
4 node   1 dark      d537df3f351f 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
4 node   1 recording d537df3f351f 6e1c71ff7f85 97f0f197add3 4f53cda18c2b
4 node   1 spatial   d537df3f351f 6e1c71ff7f85 97f0f197add3 9344bad16e92
4 random 0 dark      e251c531e77d 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
4 random 0 recording e251c531e77d 7dcecb3ab87b b927ff322da8 4f53cda18c2b
4 random 0 spatial   e251c531e77d 7dcecb3ab87b b927ff322da8 1cdea405f02c
4 random 1 dark      50b297b36c36 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
4 random 1 recording 50b297b36c36 7dcecb3ab87b b927ff322da8 4f53cda18c2b
4 random 1 spatial   50b297b36c36 7dcecb3ab87b b927ff322da8 1cdea405f02c
5 none   0 dark      2d51de7a932f 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
5 none   0 recording 2d51de7a932f 78c32183c1eb f9aa91b1d1d5 4f53cda18c2b
5 none   0 spatial   2d51de7a932f 78c32183c1eb f9aa91b1d1d5 72caef6af4ca
5 none   1 dark      9d666f05be32 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
5 none   1 recording 9d666f05be32 78c32183c1eb f9aa91b1d1d5 4f53cda18c2b
5 none   1 spatial   9d666f05be32 78c32183c1eb f9aa91b1d1d5 72caef6af4ca
5 node   0 dark      67a5b7c59a46 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
5 node   0 recording 67a5b7c59a46 f4f329f044ce 586d20f5a5c3 4f53cda18c2b
5 node   0 spatial   67a5b7c59a46 f4f329f044ce 586d20f5a5c3 f576b2539af6
5 node   1 dark      ef401f5143c2 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
5 node   1 recording ef401f5143c2 f4f329f044ce 586d20f5a5c3 4f53cda18c2b
5 node   1 spatial   ef401f5143c2 f4f329f044ce 586d20f5a5c3 f576b2539af6
5 random 0 dark      1242761e5d20 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
5 random 0 recording 1242761e5d20 8e3b7614fd78 97cc04c2f2f3 4f53cda18c2b
5 random 0 spatial   1242761e5d20 8e3b7614fd78 97cc04c2f2f3 dbe36888351e
5 random 1 dark      041f213fd13e 4f53cda18c2b 4f53cda18c2b 4f53cda18c2b
5 random 1 recording 041f213fd13e 8e3b7614fd78 97cc04c2f2f3 4f53cda18c2b
5 random 1 spatial   041f213fd13e 8e3b7614fd78 97cc04c2f2f3 dbe36888351e
"""

GOLDEN = {
    tuple(line.split()[:4]): tuple(line.split()[4:])
    for line in GOLDEN_TABLE.strip().splitlines()
}

#: Bare cursor on benchmark 1: (report, snapshot digest at window 2).
GOLDEN_CURSOR = {
    "none": (
        "65d860266071",
        "0401648592e57c8ec47342e0d8062cf15639b2c1102b197546a183e94b3bf7ac",
    ),
    "node": (
        "7616cf38d525",
        "5472b04066dec75777fef6ba1a2f49684504e7bba296d41a2384325433e7b6a1",
    ),
}

#: One recovery run on benchmark 1: (report, spans, metrics).
GOLDEN_RECOVERY = ("fe5f788501bf", "a3097d965e45", "a81848e20e3e")


def _hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _instance(bench):
    topo = Mesh2D(4, 4)
    wl = make_benchmark(bench, 8, topo, seed=1998)
    tensor = wl.reference_tensor()
    model = CostModel(topo)
    cap = CapacityPlan.paper_rule(wl.n_data, topo.n_procs)
    return wl.trace, tensor, gomcds(tensor, model, cap), model, cap


def _plan(kind, bench, n_windows):
    if kind == "none":
        return None
    if kind == "node":
        return FaultPlan(node_faults=(NodeFault(pid=5, start=1),))
    return FaultPlan.random(
        Mesh2D(4, 4), n_windows, node_rate=0.1, link_rate=0.1,
        drop_rate=0.2, seed=bench,
    )


def _session(kind):
    if kind == "dark":
        return None
    return Instrumentation.started(spatial=kind == "spatial")


def _spans_digest(instr) -> str:
    spans = [] if instr is None else instr.tracer.spans
    return _hash([(s.name, s.depth, s.attrs) for s in spans])


def _metrics_digest(instr, skip=()) -> str:
    if instr is None:
        return _hash([])
    m = instr.metrics
    return _hash([
        [(n, c.value) for n, c in m.counters.items() if n not in skip],
        [(n, g.value) for n, g in m.gauges.items() if n not in skip],
        [(n, h.samples) for n, h in m.histograms.items() if n not in skip],
    ])


def _spatial_digest(instr) -> str:
    traces = [] if instr is None else instr.spatial.traces
    records = []
    for trace in traces:
        record = trace.to_dict()
        del record["window_ts"]
        records.append(record)
    return _hash(records)


def replay_digests(bench, faults, track_links, session):
    trace, tensor, schedule, model, cap = _instance(bench)
    instr = _session(session)
    report = replay_schedule(
        trace, schedule, model, capacity=cap, track_links=track_links,
        faults=_plan(faults, bench, tensor.n_windows), instrument=instr,
    )
    return (
        _hash(report.to_dict()),
        _spans_digest(instr),
        _metrics_digest(instr),
        _spatial_digest(instr),
    )


def cursor_digests(faults):
    trace, tensor, schedule, model, cap = _instance(1)
    cursor = ReplayCursor(
        trace, schedule, model, capacity=cap,
        faults=_plan(faults, 1, tensor.n_windows),
    )
    cursor.step()
    cursor.step()
    snapshot = cursor.snapshot().digest
    return _hash(cursor.run().to_dict()), snapshot


def recovery_digests():
    trace, tensor, schedule, model, cap = _instance(1)
    instr = Instrumentation.started()
    rep = replay_with_recovery(
        trace, schedule, model, _plan("node", 1, tensor.n_windows),
        tensor=tensor, capacity=cap, instrument=instr,
    )
    record = rep.to_dict()
    del record["recovery_latency_s"]
    return (
        _hash(record),
        _spans_digest(instr),
        _metrics_digest(instr, skip=("recovery.latency_s",)),
    )


CASES = [
    (str(bench), faults, str(int(links)), session)
    for bench in BENCHES
    for faults in FAULTS
    for links in (False, True)
    for session in SESSIONS
]


@pytest.mark.parametrize(("bench", "faults", "links", "session"), CASES)
def test_replay_golden(bench, faults, links, session):
    got = replay_digests(int(bench), faults, links == "1", session)
    assert got == GOLDEN[(bench, faults, links, session)]


@pytest.mark.parametrize("faults", ("none", "node"))
def test_cursor_golden(faults):
    assert cursor_digests(faults) == GOLDEN_CURSOR[faults]


def test_recovery_golden():
    assert recovery_digests() == GOLDEN_RECOVERY
