"""One-shot report generation: every experiment, rendered to markdown.

``generate_report()`` runs the paper's figure and tables plus all
registered ablations and returns a single markdown document;
``write_report(path)`` saves it.  This is how the measured sections of
EXPERIMENTS.md are regenerated after changes::

    python -c "from repro.analysis import write_report; write_report('report.md')"
"""

from __future__ import annotations

from pathlib import Path

from .experiments import (
    ablation_array_size,
    ablation_grouping_strategy,
    ablation_memory_pressure,
    ablation_movement_budget,
    ablation_online_lookahead,
    ablation_partition_schemes,
    ablation_refinement,
    ablation_replication,
    ablation_static_optimality,
    ablation_window_segmentation,
    ablation_window_size,
    run_extended_table,
    run_figure1,
    run_table1,
    run_table2,
)
from .report import render_markdown_table

__all__ = ["generate_report", "write_report"]


def _rows_to_markdown(rows: list[dict], title: str) -> str:
    if not rows:
        return f"**{title}**\n\n(no rows)"
    keys = list(rows[0].keys())
    lines = [
        f"**{title}**",
        "",
        "| " + " | ".join(str(k) for k in keys) + " |",
        "|" + "---|" * len(keys),
    ]
    for row in rows:
        cells = [
            f"{v:.1f}" if isinstance(v, float) else str(v) for v in row.values()
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def generate_report(
    sizes: tuple[int, ...] = (8, 16, 32),
    include_ablations: bool = True,
) -> str:
    """Run everything and return one markdown report."""
    sections: list[str] = ["# Measured results (auto-generated)\n"]

    fig = run_figure1()
    sections.append(
        "\n".join(
            [
                "## Figure 1 / worked example",
                "",
                f"- SCDS center {fig.scds_center}, cost {fig.scds_cost:.0f}",
                f"- LOMCDS centers {fig.lomcds_centers}, cost {fig.lomcds_cost:.0f}",
                f"- GOMCDS centers {fig.gomcds_centers}, cost {fig.gomcds_cost:.0f}",
            ]
        )
    )

    sections.append("## Table 1\n\n" + render_markdown_table(run_table1(sizes=sizes)))
    sections.append("## Table 2\n\n" + render_markdown_table(run_table2(sizes=sizes)))
    sections.append(
        "## Extended suite\n\n" + render_markdown_table(run_extended_table())
    )

    if include_ablations:
        ablations = [
            ("Ablation A: window size", ablation_window_size()),
            ("Ablation B: array size", ablation_array_size()),
            ("Ablation C: memory pressure", ablation_memory_pressure()),
            ("Ablation E: iteration partitions", ablation_partition_schemes()),
            ("Ablation F: online lookahead", ablation_online_lookahead()),
            ("Ablation G: replication", ablation_replication()),
            ("Ablation H: priced walk", ablation_refinement()),
            ("Ablation I: window segmentation", ablation_window_segmentation()),
            ("Ablation J: static optimality gap", ablation_static_optimality()),
            ("Ablation K: movement budget", ablation_movement_budget()),
        ]
        sections.append("## Ablations")
        for title, rows in ablations:
            sections.append(_rows_to_markdown(rows, title))
        grouping = ablation_grouping_strategy()
        sections.append(
            "\n".join(
                ["**Ablation D: grouping strategies**", ""]
                + [f"- {k}: {v}" for k, v in grouping.items()]
            )
        )

    return "\n\n".join(sections) + "\n"


def write_report(path, **kwargs) -> Path:
    """Generate the report and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_text(generate_report(**kwargs))
    return path
