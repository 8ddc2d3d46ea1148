"""Golden digests: the capacity-walk path solvers, pinned bit for bit.

GOMCDS, both fault reschedulers and the movement-budgeted variant all
route data through their cost-graphs in priority order under the paper's
capacity rule; SCDS and OMCDS's window 0 apply the same first-fit rule
to one window.  Each case here hashes the schedule's centers and, where
the solver certifies, the certificate's potentials / masks / totals, on
benchmarks 1-5 at size 8 on a 4x4 mesh.  Refactoring the walk must leave
every digest unchanged; recording provenance must not perturb any of
them, and the decision log it produces is pinned as well.  The
``-uncapped`` rows run both reschedulers with no capacity plan, where the
liveness mask is the walk's only constraint.

:data:`GOLDEN_MESHES` pins certified GOMCDS, with and without the
capacity rule, on other grid shapes: 8x8 at size 16, 4x8 and a 16-node
line at size 8, and 16x16 at size 8 (benchmark 1), plus one fault
reschedule on the 8x8 mesh.

:data:`GOLDEN_MULTIPLIERS` pins the per-window walks at other memory
sizes: OMCDS at 1.0x and 1.25x the balanced minimum, every grouping
variant (greedy or DP-optimal partitions, local or global centers) at
1.0x, where grouped data fall back to single windows, 1.25x and 2x, and
two-replica SCDS under the paper rule.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    CostModel,
    gomcds,
    gomcds_budgeted,
    grouped_schedule,
    omcds,
    replicated_scds,
    reschedule_around_faults,
    reschedule_from_window,
    scds,
)
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh1D, Mesh2D
from repro.mem import CapacityPlan
from repro.obs import Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark

BENCHES = (1, 2, 3, 4, 5)
RECORDING = (
    "gomcds", "faults", "recovery", "scds",
    "faults-uncapped", "recovery-uncapped",
)

#: (solver, bench) -> (centers, certificate, decision log) digests.
GOLDEN = {
    ("gomcds", 1): ("64ff234f1796d7a5", "81c7c4e3d59f8243", "a866774ce57f40c4"),
    ("gomcds", 2): ("5b0d0c708a630d6e", "439e1b9d5b606c6f", "e830899a945b83e9"),
    ("gomcds", 3): ("5e1230ffeb3d8d68", "e11b5e571e17097d", "a6ea321b89197894"),
    ("gomcds", 4): ("cc41bc2fcf187298", "a3867fc716930d10", "ac22edb3b4ccfa0f"),
    ("gomcds", 5): ("43cb3dd9236a2043", "305741a4a29f025b", "d6c4299471a45b13"),
    ("faults", 1): ("ebd71dd171c7acbd", "0ae7a8bcafe8a3d5", "e224360ac9e66ada"),
    ("faults", 2): ("5b0d0c708a630d6e", "3799eaa993ef33c0", "f2e78135cc7ab8a9"),
    ("faults", 3): ("c172122af61fcda0", "4ac3b227ca95b08d", "102062814a43251b"),
    ("faults", 4): ("98d7023101d13277", "a81aad40cb41afa8", "9d337db1204f9fe9"),
    ("faults", 5): ("9eb49a6346543506", "90fb8d4d7d569209", "caa0a3a57c60b48c"),
    ("recovery", 1): ("1a03fcf35df57b93", "cec26b4cfc10a3e5", "78fc84b297e650bf"),
    ("recovery", 2): ("5b0d0c708a630d6e", "a3148e853ebbc928", "d9b04a2ffb80202c"),
    ("recovery", 3): ("8e51cd6aef0655ed", "3fcea3e5509dea49", "6d05b6c49b6ffcc6"),
    ("recovery", 4): ("98d7023101d13277", "b52c2019b1807b75", "5c937dcb123ff0f8"),
    ("recovery", 5): ("5b700776e01fa5c9", "3ff5930da75c968e", "b13819e44b9dbb41"),
    ("faults-uncapped", 1): ("878db8dc6ec8cbfa", "2b8b63df854bdfc4", "13774da7a530397b"),
    ("faults-uncapped", 2): ("562369f1b6e583e8", "a6ab23bb74eb42b2", "d42b622fde239cfb"),
    ("faults-uncapped", 3): ("91696713afb0730b", "2824d921a4894731", "ee6c8d7508e873f7"),
    ("faults-uncapped", 4): ("fbf428e789a81348", "0ef683f56c170ef5", "b5022665a16924ff"),
    ("faults-uncapped", 5): ("72ef679a9c51afd8", "ad3750d63b60d60c", "fe60e4fb2848ebed"),
    ("recovery-uncapped", 1): ("7c483cf546af2d1e", "fd87dbd380569736", "3fa877905e118ed7"),
    ("recovery-uncapped", 2): ("562369f1b6e583e8", "60632157b7515f80", "d42b622fde239cfb"),
    ("recovery-uncapped", 3): ("cd2ad8222c7acb3b", "074dcd55be74dbb3", "c1d005abda33b9f8"),
    ("recovery-uncapped", 4): ("fbf428e789a81348", "631829ccf4ebc632", "b5022665a16924ff"),
    ("recovery-uncapped", 5): ("eaa3a57efa14c113", "2db9a6a9d5f91c9f", "b8acd2c3f8eb8fb9"),
    ("budgeted", 1): ("28995ec26edd2c0e", None, None),
    ("budgeted", 2): ("f6d78923038a30bd", None, None),
    ("budgeted", 3): ("3873f46e081ceb8e", None, None),
    ("budgeted", 4): ("4ffbefcd10327c30", None, None),
    ("budgeted", 5): ("44b6e63830b9f8c6", None, None),
    ("scds", 1): ("d673ad4638119f65", None, "7d8ca95ac8c5f0bb"),
    ("scds", 2): ("9ee415ea2a4f0bfe", None, "1cd5da0434a7d451"),
    ("scds", 3): ("9b13eb8e7e0a1992", None, "a96fc616a4e1647c"),
    ("scds", 4): ("86d181d41e0f9ba2", None, "b1c34a8d70c02dc8"),
    ("scds", 5): ("d3d7df518d21dd16", None, "1d67b115fb88339e"),
    ("omcds", 1): ("82b93978af31376c", None, None),
    ("omcds", 2): ("05a1d783068a6fc5", None, None),
    ("omcds", 3): ("b2e22846c7813e6a", None, None),
    ("omcds", 4): ("2cef6e783d936d82", None, None),
    ("omcds", 5): ("29499d8e4dbc38ff", None, None),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _certificate_digest(schedule):
    cert = schedule.meta.get("certificate")
    if cert is None:
        return None
    parts = [cert["potentials"], cert["totals"]]
    if cert["masks"] is not None:
        parts.append(cert["masks"])
    return _digest(*parts)


def _log_digest(log):
    return _digest(
        log.centers, log.actions, log.ref_costs, log.move_hops, log.volumes,
        log.n_candidates, log.runner_up, log.runner_up_delta, log.tie,
        log.forced,
    )


def _solve(solver, bench, instrument=None):
    topo = Mesh2D(4, 4)
    wl = make_benchmark(bench, 8, topo, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    model = CostModel(topo)
    cap = CapacityPlan.paper_rule(wl.n_data, topo.n_procs)
    if solver.endswith("-uncapped"):
        solver, cap = solver.removesuffix("-uncapped"), None
    if solver == "gomcds":
        return gomcds(tensor, model, cap, certify=True, instrument=instrument)
    if solver == "budgeted":
        return gomcds_budgeted(tensor, model, 2, cap)
    if solver == "scds":
        return scds(tensor, model, cap, instrument=instrument)
    if solver == "omcds":
        return omcds(tensor, model, cap)
    rng = np.random.default_rng(1998 + bench)
    fault = NodeFault(
        pid=int(rng.integers(topo.n_procs)),
        start=int(rng.integers(tensor.n_windows)),
    )
    plan = FaultPlan(node_faults=(fault,))
    if solver == "faults":
        return reschedule_around_faults(
            tensor, model, plan, cap, certify=True, instrument=instrument
        )
    base = gomcds(tensor, model, cap)
    return reschedule_from_window(
        base, tensor, model, plan, tensor.n_windows // 2,
        capacity=cap, certify=True, instrument=instrument,
    )


CASES = [
    (solver, bench, provenance)
    for solver in (*RECORDING, "budgeted", "omcds")
    for bench in BENCHES
    for provenance in ((False, True) if solver in RECORDING else (False,))
]


@pytest.mark.parametrize(("solver", "bench", "provenance"), CASES)
def test_golden_digest(solver, bench, provenance):
    instrument = Instrumentation.started(provenance=True) if provenance else None
    sched = _solve(solver, bench, instrument)
    centers, certificate, log = GOLDEN[(solver, bench)]
    assert _digest(sched.centers) == centers
    assert _certificate_digest(sched) == certificate
    if provenance:
        assert _log_digest(instrument.provenance.logs[-1]) == log


#: (grid, size, bench, capped) -> (centers, certificate) digests.
GOLDEN_MESHES = {
    ((8, 8), 16, 1, False): ("1fb8abee1460ab9f", "1fb34dc2c9f8567e"),
    ((8, 8), 16, 1, True): ("e42a638950756c41", "3a5867494b8a33b9"),
    ((8, 8), 16, 2, False): ("c0977447059df0fa", "6a931de9aaa9f4b5"),
    ((8, 8), 16, 2, True): ("7ac7e1c120561e7c", "8673054e3e3f5e2b"),
    ((8, 8), 16, 3, False): ("a28edb95582f06ba", "0018c38d9393b91f"),
    ((8, 8), 16, 3, True): ("7e81608a22bd2ea8", "5fff91818f89af96"),
    ((8, 8), 16, 4, False): ("4a15f39e8b1e11c8", "f0ea8d2b4499037b"),
    ((8, 8), 16, 4, True): ("8223aeeb1edd0bf1", "b9bb8ee43e95592e"),
    ((8, 8), 16, 5, False): ("60e97aa7b386819e", "f5d60973ba36e8a4"),
    ((8, 8), 16, 5, True): ("8da02e6e093639c8", "fe1ab1f3d42aab9b"),
    ((4, 8), 8, 1, False): ("beb2232e524bab60", "d4a6bf9d8ef7f5fa"),
    ((4, 8), 8, 1, True): ("812cf5b22e2b72be", "538117b8d5ada41e"),
    ((4, 8), 8, 2, False): ("dc5cfd3cb17eb5bf", "25e8864823d3c094"),
    ((4, 8), 8, 2, True): ("bb094775c8aeb133", "48b86cab0e2da9a7"),
    ((4, 8), 8, 3, False): ("22ee96f3e7829086", "30094fa794eff272"),
    ((4, 8), 8, 3, True): ("96dd717b9b8aa78d", "c4c13c3cf6884719"),
    ((4, 8), 8, 4, False): ("8b1e325129479d49", "ec91a456cccec6c0"),
    ((4, 8), 8, 4, True): ("774a712baa0c4e3a", "db538d187a5b1bff"),
    ((4, 8), 8, 5, False): ("c07a1c017668f54f", "254653b0044dc865"),
    ((4, 8), 8, 5, True): ("a3f7f672f39aa2e3", "892d49d1fa4d0968"),
    ((16,), 8, 1, False): ("1c14b811d5f90005", "dd62341b77538c5e"),
    ((16,), 8, 1, True): ("af8cd11c6c7b65fe", "635d76665a5babca"),
    ((16,), 8, 2, False): ("88094cdd16cfa131", "be0f6bbcc3a39c3f"),
    ((16,), 8, 2, True): ("119932196fbc2a16", "e0b567786e81407f"),
    ((16,), 8, 3, False): ("6c9c12c42b0db45d", "393c3fa08fd1d6c3"),
    ((16,), 8, 3, True): ("3b8bcd4ac6c724b2", "1997a2d9115c09e5"),
    ((16,), 8, 4, False): ("603cb55f6aa07e21", "22f8ba40ee75ee8e"),
    ((16,), 8, 4, True): ("09c61d0e5b92adc7", "64c0abc72f74b857"),
    ((16,), 8, 5, False): ("de0a8001e7307156", "0dff3d01dd224617"),
    ((16,), 8, 5, True): ("de0a8001e7307156", "81f6b30c9025ea0a"),
    ((16, 16), 8, 1, False): ("ca40ebb55279dcbd", "a557742158339a6d"),
    ((16, 16), 8, 1, True): ("90609e245959f087", "840a4adf117603c4"),
}


def _mesh_instance(grid, size, bench):
    topo = Mesh1D(*grid) if len(grid) == 1 else Mesh2D(*grid)
    wl = make_benchmark(bench, size, topo, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    return tensor, CostModel(topo), CapacityPlan.paper_rule(wl.n_data, topo.n_procs)


@pytest.mark.parametrize(("grid", "size", "bench", "capped"), list(GOLDEN_MESHES))
def test_golden_mesh_digest(grid, size, bench, capped):
    tensor, model, cap = _mesh_instance(grid, size, bench)
    sched = gomcds(tensor, model, cap if capped else None, certify=True)
    assert (_digest(sched.centers), _certificate_digest(sched)) == (
        GOLDEN_MESHES[(grid, size, bench, capped)]
    )


def test_golden_mesh_fault_reschedule():
    tensor, model, cap = _mesh_instance((8, 8), 16, 1)
    plan = FaultPlan(node_faults=(NodeFault(pid=27, start=tensor.n_windows // 2),))
    sched = reschedule_around_faults(tensor, model, plan, cap, certify=True)
    assert (_digest(sched.centers), _certificate_digest(sched)) == (
        "1e9e5585812733c9", "83ffeebd769d6dc8",
    )



#: (solver, multiplier, bench) -> digests: the centers (OMCDS), the
#: centers and partitions (grouping, ``<strategy>-<center method>``) or
#: the replica sites padded with -1 (two-replica SCDS).
GOLDEN_MULTIPLIERS = {
    ("omcds", 1.0, 1): ("706fdb2ab88ee52d",),
    ("omcds", 1.0, 2): ("bab963cd98217fac",),
    ("omcds", 1.0, 3): ("7b122bcbc724c760",),
    ("omcds", 1.0, 4): ("eb328c30f9114a29",),
    ("omcds", 1.0, 5): ("a27054af4427d70d",),
    ("omcds", 1.25, 1): ("fa33a0d3e7169e7b",),
    ("omcds", 1.25, 2): ("657626628efec656",),
    ("omcds", 1.25, 3): ("969f22c3100cbb68",),
    ("omcds", 1.25, 4): ("d3f6edf88b5f6aaf",),
    ("omcds", 1.25, 5): ("eca816e0663f7f7f",),
    ("greedy-local", 1.0, 1): ("31290d0f2ecb40a6", "d876abe22d6bd83a"),
    ("greedy-local", 1.0, 2): ("be0efb9608388353", "cbf3d3c54f3d84a7"),
    ("greedy-local", 1.0, 3): ("1f0e6f17fdfb2792", "ecf9edf5edd489a2"),
    ("greedy-local", 1.0, 4): ("b6e2cb8c1db31f90", "dc5d2ebd2f0fd6ef"),
    ("greedy-local", 1.0, 5): ("0fd733e8d3f64eec", "efc933a83a4c0916"),
    ("greedy-local", 1.25, 1): ("861709fe9cd22371", "41df7b03133f0e72"),
    ("greedy-local", 1.25, 2): ("d35d12f853a78f29", "5a27b75600da8b59"),
    ("greedy-local", 1.25, 3): ("7cded74dc4315a01", "9183b0756b6d8fc0"),
    ("greedy-local", 1.25, 4): ("8cdc74c37190f679", "caf875b0a5bfb269"),
    ("greedy-local", 1.25, 5): ("c9fd67ee2587e781", "9fbcad33f4b61380"),
    ("greedy-local", 2.0, 1): ("3540127130139daa", "41df7b03133f0e72"),
    ("greedy-local", 2.0, 2): ("1260883ebc611fda", "5a27b75600da8b59"),
    ("greedy-local", 2.0, 3): ("d99d3eacd7043ade", "41bc7fc72603b966"),
    ("greedy-local", 2.0, 4): ("729c3f48488d5d44", "b4af5a16e4ba83e5"),
    ("greedy-local", 2.0, 5): ("f0b745c94bb4c225", "3223992d6f0dd5be"),
    ("greedy-global", 1.0, 1): ("6fb726fdbd93e864", "39d35179a6b62634"),
    ("greedy-global", 1.0, 2): ("a749224285aa304c", "f50f74d20014f3be"),
    ("greedy-global", 1.0, 3): ("1d1ceb5a3814dd04", "cecb6f8caff44396"),
    ("greedy-global", 1.0, 4): ("ad2855f83f34b943", "d0e54206e1f0088b"),
    ("greedy-global", 1.0, 5): ("66cc4706b4b2dd9d", "e1e5517945d68e3d"),
    ("greedy-global", 1.25, 1): ("dd6c84bd255dd61c", "3fef27f7bcd6e0bc"),
    ("greedy-global", 1.25, 2): ("c3a3f5781ae37be4", "99c0994cc0af0878"),
    ("greedy-global", 1.25, 3): ("f25870e7132f26bc", "6a38a78c4fdd2834"),
    ("greedy-global", 1.25, 4): ("5c7f2cb0080722bb", "461d6df643aa567d"),
    ("greedy-global", 1.25, 5): ("978da4b90e7b6c4b", "5e1aae93b413350f"),
    ("greedy-global", 2.0, 1): ("fe09f52f792339aa", "3fef27f7bcd6e0bc"),
    ("greedy-global", 2.0, 2): ("b7ae9a337a02b09b", "99c0994cc0af0878"),
    ("greedy-global", 2.0, 3): ("300c75daa7f1be04", "1d1c6fc676ef4e74"),
    ("greedy-global", 2.0, 4): ("34bbad96413319f4", "d191864a6adbfd23"),
    ("greedy-global", 2.0, 5): ("84d8ce4b6051d253", "eb92ad34bbdfcf30"),
    ("optimal-local", 1.0, 1): ("be7dbeb875a99ca2", "ae0ad7f07d1770cd"),
    ("optimal-local", 1.0, 2): ("e58b4946defbef30", "bc0506a87350f8ab"),
    ("optimal-local", 1.0, 3): ("f24a3b1f973d3fea", "4c450c4fe33d90c4"),
    ("optimal-local", 1.0, 4): ("eeeb9535ea8f25d6", "6107bdc9de5af524"),
    ("optimal-local", 1.0, 5): ("22237f948884cb80", "411092f237f8cae7"),
    ("optimal-local", 1.25, 1): ("d97bbc0b5b06913a", "4d80bf1e8e0568ab"),
    ("optimal-local", 1.25, 2): ("75b4e11851872ae8", "442441ffd57f2b74"),
    ("optimal-local", 1.25, 3): ("ac5f9796f3d1c0d4", "c3fb132dedb2bb98"),
    ("optimal-local", 1.25, 4): ("0a88ef47abf62bba", "88f0085e702ea84a"),
    ("optimal-local", 1.25, 5): ("4c7fd549d2bbddbb", "16a08843505eb11d"),
    ("optimal-local", 2.0, 1): ("2486cd1b38b53280", "4d80bf1e8e0568ab"),
    ("optimal-local", 2.0, 2): ("425c28dd3e63df4b", "442441ffd57f2b74"),
    ("optimal-local", 2.0, 3): ("43a7521e91a87bf9", "f5c61fbbe5c8a91b"),
    ("optimal-local", 2.0, 4): ("fe04082d05fb1c81", "c8a6628aa78e3ff7"),
    ("optimal-local", 2.0, 5): ("45505e872fda28c8", "136d1046fd029c23"),
    ("optimal-global", 1.0, 1): ("8d145eceff6b1ad5", "5258cd3360126e5e"),
    ("optimal-global", 1.0, 2): ("147517b13eb571d4", "71f60589830b11a8"),
    ("optimal-global", 1.0, 3): ("f570af14597d16a8", "061231cac757e14f"),
    ("optimal-global", 1.0, 4): ("68caa7369db2aaa9", "e7389c13361ad6f3"),
    ("optimal-global", 1.0, 5): ("1582898fed565a60", "c165d50a647897a0"),
    ("optimal-global", 1.25, 1): ("8638b54e150b5d37", "4d80bf1e8e0568ab"),
    ("optimal-global", 1.25, 2): ("c4d52f8ff39393b7", "442441ffd57f2b74"),
    ("optimal-global", 1.25, 3): ("4e9e9a966570b07e", "5f3e6d4cc163b457"),
    ("optimal-global", 1.25, 4): ("0e6829e26b29f009", "03a293bb21d0d39a"),
    ("optimal-global", 1.25, 5): ("2523f2ef99761632", "8aa2b8caed2e643f"),
    ("optimal-global", 2.0, 1): ("24279783ca7b32ff", "4d80bf1e8e0568ab"),
    ("optimal-global", 2.0, 2): ("2407a09544e26a53", "442441ffd57f2b74"),
    ("optimal-global", 2.0, 3): ("448998f0d9ed5ffc", "f5c61fbbe5c8a91b"),
    ("optimal-global", 2.0, 4): ("32c497e5f75ba6a8", "c8a6628aa78e3ff7"),
    ("optimal-global", 2.0, 5): ("0b3f83649c9b3016", "136d1046fd029c23"),
    ("replicated", 2.0, 1): ("828f912867afae75",),
    ("replicated", 2.0, 2): ("4c4c4dfc5850ba29",),
    ("replicated", 2.0, 3): ("1cfaa7faed3ca164",),
    ("replicated", 2.0, 4): ("74d9a8966f75d9bd",),
    ("replicated", 2.0, 5): ("5a5f46a1bcb4088e",),
}


def _solve_at(solver, multiplier, bench):
    topo = Mesh2D(4, 4)
    wl = make_benchmark(bench, 8, topo, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    model = CostModel(topo)
    cap = CapacityPlan.paper_rule(wl.n_data, topo.n_procs, multiplier)
    if solver == "omcds":
        return (_digest(omcds(tensor, model, cap).centers),)
    if solver == "replicated":
        placement = replicated_scds(tensor, model, 2, cap)
        sites = np.array([(*s, -1)[:2] for s in placement.replicas])
        return (_digest(sites),)
    strategy, center_method = solver.split("-")
    sched = grouped_schedule(
        tensor, model, cap, center_method=center_method, strategy=strategy
    )
    partitions = np.array([
        (d, first, last)
        for d, partition in sorted(sched.meta["partitions"].items())
        for first, last in partition
    ])
    return _digest(sched.centers), _digest(partitions)


@pytest.mark.parametrize(("solver", "multiplier", "bench"), list(GOLDEN_MULTIPLIERS))
def test_golden_multiplier_digest(solver, multiplier, bench):
    assert _solve_at(solver, multiplier, bench) == (
        GOLDEN_MULTIPLIERS[(solver, multiplier, bench)]
    )
