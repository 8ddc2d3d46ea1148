"""Pin the ``repro-pim`` command-line surface.

Every option of every subcommand, with its default, ``type``, ``choices``,
``nargs`` and action class.  A refactor of the parser must leave this
table unchanged: no flag added or removed, no default moved.
"""

import argparse

import pytest

from repro import cli

#: "<subcommand> <option strings>" -> (default, type, choices, nargs, action)
SURFACE = {
    "table1 -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "table1 --metrics": (None, None, None, None, "_StoreAction"),
    "table1 --sizes": ([8, 16, 32], "int", None, "+", "_StoreAction"),
    "table1 --benchmarks": ([1, 2, 3, 4, 5], "int", None, "+", "_StoreAction"),
    "table1 --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "table1 --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "table1 --seed": (1998, "int", None, None, "_StoreAction"),
    "table1 --fast": (False, None, None, 0, "_StoreTrueAction"),
    "table2 -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "table2 --metrics": (None, None, None, None, "_StoreAction"),
    "table2 --sizes": ([8, 16, 32], "int", None, "+", "_StoreAction"),
    "table2 --benchmarks": ([1, 2, 3, 4, 5], "int", None, "+", "_StoreAction"),
    "table2 --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "table2 --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "table2 --seed": (1998, "int", None, None, "_StoreAction"),
    "table2 --fast": (False, None, None, 0, "_StoreTrueAction"),
    "figure1 -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "figure1 --metrics": (None, None, None, None, "_StoreAction"),
    "extended -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "extended --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-window -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-window --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-array -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-array --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-memory -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-memory --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-grouping -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-grouping --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-partition -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-partition --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-online -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-online --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-replication -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-replication --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-refine -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-refine --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-segmentation -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-segmentation --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-static -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-static --metrics": (None, None, None, None, "_StoreAction"),
    "seeds -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "seeds --metrics": (None, None, None, None, "_StoreAction"),
    "ablation-budget -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "ablation-budget --metrics": (None, None, None, None, "_StoreAction"),
    "batch -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "batch --metrics": (None, None, None, None, "_StoreAction"),
    "batch --benchmarks": ([1, 2, 3, 4, 5], "int", None, "+", "_StoreAction"),
    "batch --sizes": ([16], "int", None, "+", "_StoreAction"),
    "batch --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "batch --schedulers": (
        ["SCDS", "LOMCDS", "GOMCDS"],
        "_scheduler_name",
        None,
        "+",
        "_StoreAction",
    ),
    "batch --cache-dir": (None, None, None, None, "_StoreAction"),
    "batch --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "batch --seed": (1998, "int", None, None, "_StoreAction"),
    "batch --telemetry": (None, None, None, None, "_StoreAction"),
    "batch --format": ("human", None, ["human", "json"], None, "_StoreAction"),
    "tail -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "tail --metrics": (None, None, None, None, "_StoreAction"),
    "tail path": (None, None, None, None, "_StoreAction"),
    "tail -n/--events": (20, "int", None, None, "_StoreAction"),
    "tail --kind": (None, None, None, None, "_StoreAction"),
    "tail --all": (False, None, None, 0, "_StoreTrueAction"),
    "tail --format": ("human", None, ["human", "jsonl"], None, "_StoreAction"),
    "faults -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "faults --metrics": (None, None, None, None, "_StoreAction"),
    "faults --bench": (1, "int", None, None, "_StoreAction"),
    "faults --size": (8, "int", None, None, "_StoreAction"),
    "faults --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "faults --scheduler": ("GOMCDS", "_scheduler_name", None, None, "_StoreAction"),
    "faults --seed": (1998, "int", None, None, "_StoreAction"),
    "faults --fault-seed": (0, "int", None, None, "_StoreAction"),
    "faults --node-rate": (0.0, "float", None, None, "_StoreAction"),
    "faults --link-rate": (0.0, "float", None, None, "_StoreAction"),
    "faults --drop-rate": (0.0, "float", None, None, "_StoreAction"),
    "faults --fail-node": ([], "int", None, None, "_AppendAction"),
    "faults --fail-window": (0, "int", None, None, "_StoreAction"),
    "faults --retries": (3, "int", None, None, "_StoreAction"),
    "faults --deadline": (8, "int", None, None, "_StoreAction"),
    "faults --reschedule": (False, None, None, 0, "_StoreTrueAction"),
    "faults --no-evacuate": (False, None, None, 0, "_StoreTrueAction"),
    "faults --sweep": (False, None, None, 0, "_StoreTrueAction"),
    "chaos -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "chaos --metrics": (None, None, None, None, "_StoreAction"),
    "chaos --seed": (7, "int", None, None, "_StoreAction"),
    "chaos --scenarios": (10, "int", None, None, "_StoreAction"),
    "chaos --bench": (1, "int", None, None, "_StoreAction"),
    "chaos --size": (8, "int", None, None, "_StoreAction"),
    "chaos --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "chaos --scheduler": ("GOMCDS", "_scheduler_name", None, None, "_StoreAction"),
    "chaos --checkpoint-interval": (2, "int", None, None, "_StoreAction"),
    "chaos --max-node-rate": (0.3, "float", None, None, "_StoreAction"),
    "chaos --max-drop-rate": (0.1, "float", None, None, "_StoreAction"),
    "chaos --workload-seed": (1998, "int", None, None, "_StoreAction"),
    "chaos --format": ("human", None, ["human", "json"], None, "_StoreAction"),
    "chaos --output": (None, None, None, None, "_StoreAction"),
    "lint -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "lint --metrics": (None, None, None, None, "_StoreAction"),
    "lint --schedule": (None, None, None, None, "_StoreAction"),
    "lint --trace": (None, None, None, None, "_StoreAction"),
    "lint --faults": (None, None, None, None, "_StoreAction"),
    "lint --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "lint --bench": (None, "int", None, None, "_StoreAction"),
    "lint --size": (8, "int", None, None, "_StoreAction"),
    "lint --scheduler": ("GOMCDS", "_scheduler_name", None, None, "_StoreAction"),
    "lint --seed": (1998, "int", None, None, "_StoreAction"),
    "lint --capacity": (None, "int", None, None, "_StoreAction"),
    "lint --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "lint --no-capacity": (False, None, None, 0, "_StoreTrueAction"),
    "lint --windows": (None, "int", None, None, "_StoreAction"),
    "lint --recovery-mode": (
        None,
        None,
        ["strict", "degrade", "replicate"],
        None,
        "_StoreAction",
    ),
    "lint --checkpoint-interval": (4, "int", None, None, "_StoreAction"),
    "lint --format": ("human", None, ["human", "json", "sarif"], None, "_StoreAction"),
    "lint --select": (None, None, None, "+", "_StoreAction"),
    "lint --ignore": (None, None, None, "+", "_StoreAction"),
    "lint --severity": ([], None, None, None, "_AppendAction"),
    "lint --fix": (False, None, None, 0, "_StoreTrueAction"),
    "lint --diff": (False, None, None, 0, "_StoreTrueAction"),
    "lint --output": (None, None, None, None, "_StoreAction"),
    "certify -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "certify --metrics": (None, None, None, None, "_StoreAction"),
    "certify --bench": (None, "int", None, None, "_StoreAction"),
    "certify --size": (8, "int", None, None, "_StoreAction"),
    "certify --scheduler": ("GOMCDS", "_scheduler_name", None, None, "_StoreAction"),
    "certify --seed": (1998, "int", None, None, "_StoreAction"),
    "certify --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "certify --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "certify --schedule": (None, None, None, None, "_StoreAction"),
    "certify --trace": (None, None, None, None, "_StoreAction"),
    "certify --faults": (None, None, None, None, "_StoreAction"),
    "certify --fail-node": ([], "int", None, None, "_AppendAction"),
    "certify --fail-window": (0, "int", None, None, "_StoreAction"),
    "certify --link-budget": (None, "float", None, None, "_StoreAction"),
    "certify --hotspot-factor": (None, "float", None, None, "_StoreAction"),
    "certify --require-certificate": (False, None, None, 0, "_StoreTrueAction"),
    "certify --no-differential": (False, None, None, 0, "_StoreTrueAction"),
    "certify --no-theory": (False, None, None, 0, "_StoreTrueAction"),
    "certify --format": (
        "human",
        None,
        ["human", "json", "sarif"],
        None,
        "_StoreAction",
    ),
    "certify --output": (None, None, None, None, "_StoreAction"),
    "profile -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "profile --metrics": (None, None, None, None, "_StoreAction"),
    "profile --workload": ("suite", None, None, None, "_StoreAction"),
    "profile --benchmarks": ([1, 2, 3, 4, 5], "int", None, "+", "_StoreAction"),
    "profile --size": (16, "int", None, None, "_StoreAction"),
    "profile --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "profile --scheduler": (None, "_scheduler_name", None, "+", "_StoreAction"),
    "profile --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "profile --seed": (1998, "int", None, None, "_StoreAction"),
    "profile --no-replay": (False, None, None, 0, "_StoreTrueAction"),
    "profile --spatial": (False, None, None, 0, "_StoreTrueAction"),
    "profile --format": (
        "summary",
        None,
        ["summary", "jsonl", "chrome", "prometheus"],
        None,
        "_StoreAction",
    ),
    "profile --output": (None, None, None, None, "_StoreAction"),
    "heatmap -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "heatmap --metrics": (None, None, None, None, "_StoreAction"),
    "heatmap --bench": (1, "int", None, None, "_StoreAction"),
    "heatmap --size": (16, "int", None, None, "_StoreAction"),
    "heatmap --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "heatmap --scheduler": ("GOMCDS", "_scheduler_name", None, None, "_StoreAction"),
    "heatmap --seed": (1998, "int", None, None, "_StoreAction"),
    "heatmap --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "heatmap --top-k": (5, "int", None, None, "_StoreAction"),
    "heatmap --hotspot-factor": (4.0, "float", None, None, "_StoreAction"),
    "heatmap --gini-threshold": (0.6, "float", None, None, "_StoreAction"),
    "bench-compare -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "bench-compare --metrics": (None, None, None, None, "_StoreAction"),
    "bench-compare --baseline": (
        "BENCH_schedulers.json",
        None,
        None,
        None,
        "_StoreAction",
    ),
    "bench-compare --fresh": (None, None, None, None, "_StoreAction"),
    "bench-compare --repeats": (None, "int", None, None, "_StoreAction"),
    "bench-compare --time-tolerance-pct": (50.0, "float", None, None, "_StoreAction"),
    "bench-compare --min-time-delta": (0.05, "float", None, None, "_StoreAction"),
    "bench-compare --format": ("human", None, ["human", "json"], None, "_StoreAction"),
    "bench-compare --output": (None, None, None, None, "_StoreAction"),
    "explain -h/--help": ("==SUPPRESS==", None, None, 0, "_HelpAction"),
    "explain --metrics": (None, None, None, None, "_StoreAction"),
    "explain --bench": (1, "int", None, None, "_StoreAction"),
    "explain --size": (16, "int", None, None, "_StoreAction"),
    "explain --mesh": ([4, 4], "int", None, 2, "_StoreAction"),
    "explain --seed": (1998, "int", None, None, "_StoreAction"),
    "explain --scheduler": ("GOMCDS", "_scheduler_name", None, None, "_StoreAction"),
    "explain --capacity-multiplier": (2.0, "float", None, None, "_StoreAction"),
    "explain --fail-node": (None, "int", None, None, "_StoreAction"),
    "explain --fail-window": (0, "int", None, None, "_StoreAction"),
    "explain --datum": (None, "int", None, None, "_StoreAction"),
    "explain --window": (None, "int", None, None, "_StoreAction"),
    "explain --top": (10, "int", None, None, "_StoreAction"),
    "explain --format": (
        "human",
        None,
        ["human", "json", "jsonl"],
        None,
        "_StoreAction",
    ),
    "explain --output": (None, None, None, None, "_StoreAction"),
    "explain --check": (False, None, None, 0, "_StoreTrueAction"),
    "explain --diff": (None, None, None, 2, "_StoreAction"),
    "explain --max-overhead-pct": (None, "float", None, None, "_StoreAction"),
}


class _Parsed(Exception):
    """Carries the fully built parser out of :func:`repro.cli.main`."""


@pytest.fixture
def parser(monkeypatch):
    def grab(self, args=None, namespace=None):
        raise _Parsed(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", grab)
    with pytest.raises(_Parsed) as caught:
        cli.main([])
    return caught.value.args[0]


def _listed(value):
    return list(value) if isinstance(value, tuple) else value


def test_cli_surface_is_pinned(parser):
    (commands,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {
        f"{name} {'/'.join(action.option_strings) or action.dest}": (
            _listed(action.default),
            getattr(action.type, "__name__", action.type),
            _listed(action.choices),
            action.nargs,
            type(action).__name__,
        )
        for name, sub in commands.choices.items()
        for action in sub._actions
    }
    assert surface == SURFACE
