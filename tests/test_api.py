"""The unified ``repro.schedule`` facade and SchedulerSpec registry."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import schedule
from repro.core import (
    SCHEDULER_SPECS,
    SchedulerSpec,
    evaluate_schedule,
    gomcds,
    lomcds,
    omcds,
    scds,
    scheduler_spec,
)
from repro.mem import CapacityPlan


def test_facade_is_re_exported_from_package_root():
    assert repro.schedule is schedule
    assert repro.scheduler_spec is scheduler_spec
    assert repro.SchedulerSpec is SchedulerSpec


def test_default_algorithm_is_gomcds(lu8_tensor, model44):
    assert np.array_equal(
        schedule(lu8_tensor, model44).centers,
        gomcds(lu8_tensor, model44).centers,
    )


@pytest.mark.parametrize(
    ("name", "func"),
    [("scds", scds), ("LOMCDS", lomcds), ("GoMcDs", gomcds)],
)
def test_facade_matches_direct_call(name, func, lu8_tensor, model44, lu8):
    cap = CapacityPlan.paper_rule(lu8.n_data, 16)
    via_facade = schedule(lu8_tensor, model44, algorithm=name, capacity=cap)
    direct = func(lu8_tensor, model44, capacity=cap)
    assert np.array_equal(via_facade.centers, direct.centers)


def test_facade_forwards_algorithm_kwargs(drift, model44):
    tensor = drift.reference_tensor()
    via_facade = schedule(
        tensor, model44, algorithm="omcds", hysteresis=math.inf
    )
    assert np.array_equal(
        via_facade.centers, omcds(tensor, model44, hysteresis=math.inf).centers
    )


def test_facade_accepts_spec_object(lu8_tensor, model44):
    spec = scheduler_spec("scds")
    sched = schedule(lu8_tensor, model44, algorithm=spec)
    assert sched.method == "SCDS"


def test_unknown_algorithm_raises_with_known_names(lu8_tensor, model44):
    with pytest.raises(KeyError, match="GOMCDS"):
        schedule(lu8_tensor, model44, algorithm="quantum")


def test_spec_registry_shape():
    assert set(SCHEDULER_SPECS) == {"SCDS", "LOMCDS", "GOMCDS", "OMCDS"}
    for name, spec in SCHEDULER_SPECS.items():
        assert spec.name == name
        assert spec.to_dict()["name"] == name
    assert SCHEDULER_SPECS["SCDS"].multi_center is False
    assert SCHEDULER_SPECS["GOMCDS"].movement_aware is True
    assert SCHEDULER_SPECS["OMCDS"].online is True


def test_specs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SCHEDULER_SPECS["GOMCDS"].name = "other"


def test_scheduler_spec_returns_uniform_callable(lu8_tensor, model44):
    spec = scheduler_spec("gomcds")
    assert isinstance(spec, SchedulerSpec)
    # positional-capacity call shape works on the spec
    sched = spec(lu8_tensor, model44, None)
    assert sched.method == "GOMCDS"


def test_cost_breakdown_result_protocol(lu8_tensor, model44):
    breakdown = evaluate_schedule(
        schedule(lu8_tensor, model44), lu8_tensor, model44
    )
    d = breakdown.to_dict()
    assert d["kind"] == "cost_breakdown"
    assert d["total"] == breakdown.total
    assert d["reference_cost"] + d["movement_cost"] == pytest.approx(d["total"])
    assert breakdown.summary().startswith("cost: total")


def test_sim_report_result_protocol(lu8, lu8_tensor, model44):
    from repro.sim import replay_schedule

    report = replay_schedule(lu8.trace, schedule(lu8_tensor, model44), model44)
    d = report.to_dict()
    assert d["kind"] == "sim_report"
    assert d["total_cost"] == report.total_cost
    assert report.summary().startswith("replay: total")


def test_lint_report_result_protocol(lu8, lu8_tensor, model44):
    from repro.lint import LintContext, run_lint

    report = run_lint(
        LintContext(schedule=schedule(lu8_tensor, model44), model=model44)
    )
    d = report.to_dict()
    assert d["kind"] == "lint_report"
    assert isinstance(report.summary(), str)


def test_results_interchangeable_in_exporters(lu8, lu8_tensor, model44):
    import json

    from repro.lint import LintContext, run_lint
    from repro.obs import Instrumentation, to_jsonl
    from repro.sim import replay_schedule

    sched = schedule(lu8_tensor, model44)
    results = [
        evaluate_schedule(sched, lu8_tensor, model44),
        replay_schedule(lu8.trace, sched, model44),
        run_lint(LintContext(schedule=sched, model=model44)),
    ]
    text = to_jsonl(Instrumentation.started(), results=results)
    kinds = [json.loads(line)["kind"] for line in text.splitlines()]
    assert kinds == ["cost_breakdown", "sim_report", "lint_report"]


# --- facade options: certify= / kernel= / kwarg validation ------------------


def test_facade_certify_flag_attaches_certificate(lu8_tensor, model44):
    sched = schedule(lu8_tensor, model44, certify=True)
    assert sched.meta["certificate"]["kind"] == "gomcds-potentials"


def test_facade_kernel_flag_is_bit_identical(lu8_tensor, model44):
    fast = schedule(lu8_tensor, model44, kernel="numpy")
    slow = schedule(lu8_tensor, model44, kernel="python")
    assert np.array_equal(fast.centers, slow.centers)


def test_facade_rejects_unsupported_kwargs(lu8_tensor, model44):
    with pytest.raises(TypeError, match="certify"):
        schedule(lu8_tensor, model44, algorithm="scds", certify=True)
    with pytest.raises(TypeError, match="hysteresis"):
        schedule(lu8_tensor, model44, algorithm="gomcds", hysteresis=2.0)


def test_facade_rejects_unknown_kernel(lu8_tensor, model44):
    with pytest.raises(ValueError, match="python"):
        schedule(lu8_tensor, model44, kernel="fortran")


def test_spec_reports_supported_kwargs():
    assert SCHEDULER_SPECS["GOMCDS"].supported_kwargs == ("certify", "kernel")
    assert SCHEDULER_SPECS["OMCDS"].supported_kwargs == ("hysteresis",)
    for name, spec in SCHEDULER_SPECS.items():
        assert spec.to_dict()["supported_kwargs"] == list(
            spec.supported_kwargs
        )


# --- one implementation per algorithm, no deprecated layer -----------------


def test_facade_and_scheduler_spec_do_not_warn(lu8_tensor, model44):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        schedule(lu8_tensor, model44)
        scheduler_spec("GOMCDS")(lu8_tensor, model44)


def test_core_names_are_the_spec_functions():
    assert scds is SCHEDULER_SPECS["SCDS"].func
    assert lomcds is SCHEDULER_SPECS["LOMCDS"].func
    assert gomcds is SCHEDULER_SPECS["GOMCDS"].func
    assert omcds is SCHEDULER_SPECS["OMCDS"].func
    for name in ("scds", "lomcds", "gomcds", "get_scheduler"):
        assert not hasattr(repro, name)


def test_import_does_not_load_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "False"
