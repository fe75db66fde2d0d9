"""Deterministic CSV and JSON emission.

Floats are rendered with ``repr`` (shortest round-trip form), iteration
orders are fixed upstream, and nothing time-dependent is written, so a
repeated run with the same config produces byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .experiments import ResultSet, ResultTable
from .mimo import ChannelMatrix
from .quadrature import ConvergenceStudy


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    if "," in text or "\n" in text:
        msg = f"cell value {text!r} would break the CSV layout"
        raise ValueError(msg)
    return text


def write_table_csv(table: ResultTable, path: str | Path) -> Path:
    path = Path(path)
    lines = [",".join(table.columns)]
    lines.extend(",".join(_cell(value) for value in row) for row in table.rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def results_to_json(results: ResultSet) -> dict:
    return {
        "experiment": results.experiment,
        "provenance": results.provenance,
        "tables": [
            {
                "name": table.name,
                "columns": list(table.columns),
                "rows": [list(row) for row in table.rows],
            }
            for table in results.tables
        ],
    }


def emit(results: ResultSet, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write a result set as one CSV per table or a single JSON file."""
    if fmt not in ("csv", "json"):
        msg = f"format must be 'csv' or 'json', got {fmt!r}"
        raise ValueError(msg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        return [
            write_table_csv(table, out_dir / f"{results.experiment}_{table.name}.csv")
            for table in results.tables
        ]
    path = out_dir / f"{results.experiment}.json"
    payload = json.dumps(results_to_json(results), indent=2)
    path.write_text(payload + "\n", encoding="utf-8", newline="\n")
    return [path]


def write_convergence_csv(study: ConvergenceStudy, path: str | Path) -> Path:
    rows = tuple((row.n_alpha, row.value.real, row.value.imag,
                  "" if row.delta is None else row.delta) for row in study.rows)
    table = ResultTable("convergence", ("n_alpha", "re", "im", "delta"), rows)
    return write_table_csv(table, path)


def write_channel_matrix_csv(channel: ChannelMatrix, path: str | Path) -> Path:
    rows = tuple((m, n, value.real, value.imag)
                 for m, entries in enumerate(channel.entries) for n, value in enumerate(entries))
    return write_table_csv(ResultTable("channel", ("row", "col", "re", "im"), rows), path)


def channel_matrix_to_json(channel: ChannelMatrix) -> dict:
    """Matrix entries plus the full scene/layout metadata needed to rebuild
    the exact same matrix."""
    scene = channel.scene
    return {
        "scene": {
            "frequency_hz": scene.medium.frequency,
            "material": scene.medium.material.name,
            "surface_z_m": scene.surface_z,
            "source_z_m": scene.source_z,
            "receiver_z_m": scene.receiver_z,
            "source_radius_m": scene.source_radius,
        },
        "component": channel.component.name,
        "tx": _layout_to_json(channel.tx),
        "rx": _layout_to_json(channel.rx),
        "quadrature": {"n_alpha": channel.spec.n_alpha},
        "under_resolved": channel.under_resolved,
        "distinct_evaluations": channel.distinct_evaluations,
        "entries_re": channel.entries.real.tolist(),
        "entries_im": channel.entries.imag.tolist(),
    }


def _layout_to_json(layout) -> dict:
    return {
        "count": layout.count,
        "spacing_m": layout.spacing,
        "center_m": list(layout.center),
        "axis": list(layout.axis),
    }
