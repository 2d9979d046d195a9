"""Result tables, SVG renderings, and on-disk run artifacts."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from . import verification
from .ccp import CcpResult
from .geometry import TOL_DIAM, Polygon, diameter_graph, pendant_area, polygon_to_json, upper_bound
from .literature import lower_bound

__all__ = [
    "SweepRow",
    "sweep_row",
    "render_table_text",
    "render_table_csv",
    "render_svg",
    "trace_csv",
    "export_run",
]

CSV_HEADER = "n,pendant_area,literature_lower_bound,upper_bound,computed_area,iterations"
TEXT_HEADER = (
    "   n | pendant_area | literature   | upper_bound  | computed_area | iterations"
)


@dataclass
class SweepRow:
    """One row of the sweep report; areas printed at 10 decimals."""

    n: int
    area_pendant: float
    literature_lower_bound: float | None
    upper_bound: float
    area_computed: float
    iterations: int
    structure_pass: bool


def sweep_row(result: CcpResult, structure_pass: bool) -> SweepRow:
    return SweepRow(
        n=result.n,
        area_pendant=pendant_area(result.n),
        literature_lower_bound=lower_bound(result.n),
        upper_bound=upper_bound(result.n),
        area_computed=result.area,
        iterations=result.iterations,
        structure_pass=bool(structure_pass),
    )


def _fmt(value: float | None) -> str:
    return "--" if value is None else f"{value:.10f}"


def render_table_csv(rows: list[SweepRow]) -> str:
    if not rows:
        raise ValueError("no rows to render")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.n},{_fmt(r.area_pendant)},{_fmt(r.literature_lower_bound)},"
            f"{_fmt(r.upper_bound)},{_fmt(r.area_computed)},{r.iterations}"
        )
    return "\n".join(lines) + "\n"


def render_table_text(rows: list[SweepRow]) -> str:
    if not rows:
        raise ValueError("no rows to render")
    lines = [TEXT_HEADER]
    for r in rows:
        lines.append(
            f"{r.n:>4d} | {_fmt(r.area_pendant)} | {_fmt(r.literature_lower_bound):<12} | "
            f"{_fmt(r.upper_bound)} | {_fmt(r.area_computed)} | {r.iterations:>10d}"
        )
    return "\n".join(lines) + "\n"


def render_svg(
    polygon: Polygon,
    *,
    size: int = 480,
    tol_diam: float = TOL_DIAM,
    vertex_labels: bool = False,
) -> str:
    """SVG drawing: dashed boundary, solid unit-distance chords.

    The viewport fits the polygon with a 5% margin. Output is byte-for-byte
    deterministic for a fixed input.
    """
    v = polygon.vertices
    n = polygon.n
    xmin, ymin = v.min(axis=0)
    xmax, ymax = v.max(axis=0)
    extent = max(xmax - xmin, ymax - ymin, 1e-9)
    margin = 0.05 * extent
    xmin -= margin
    ymax += margin
    span = extent + 2 * margin
    scale = size / span

    def px(point):
        return (point[0] - xmin) * scale, (ymax - point[1]) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
    ]
    for i in range(n):
        (x1, y1), (x2, y2) = px(v[i]), px(v[(i + 1) % n])
        lines.append(
            f'  <line class="boundary" x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="#555555" stroke-width="1.5" '
            f'stroke-dasharray="7 5" fill="none"/>'
        )
    for i, j in diameter_graph(polygon, tol_diam=tol_diam).sorted_edges():
        (x1, y1), (x2, y2) = px(v[i]), px(v[j])
        lines.append(
            f'  <line class="chord" x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="#000000" stroke-width="1.5"/>'
        )
    if vertex_labels:
        for i in range(n):
            x, y = px(v[i])
            lines.append(
                f'  <text class="label" x="{x + 4:.2f}" y="{y - 4:.2f}" '
                f'font-size="12">v{i}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def trace_csv(result: CcpResult) -> str:
    """Per-iterate trace: k, area, rel_step, solver_iterations, max_residual."""
    if result.trace is None:
        raise ValueError(f"run for n={result.n} has no trace: {result.message}")
    lines = ["k,area,rel_step,solver_iterations,max_residual"]
    for rec in result.trace.records:
        rel = "" if rec.rel_step is None else f"{rec.rel_step:.6e}"
        lines.append(
            f"{rec.k},{rec.area:.17g},{rel},{rec.solver_iterations},"
            f"{rec.max_violation:.6e}"
        )
    return "\n".join(lines) + "\n"


def export_run(
    result: CcpResult,
    out_dir: str | Path,
    report: verification.StructureReport,
) -> list[Path]:
    """Write polygon JSON, trace CSV, structure JSON, and SVG for one run.

    Files land in a per-n subdirectory and carry a content hash in their
    names so identical runs export to identical trees. `report` is the
    run's structure report at the default tolerance.
    """
    if result.polygon is None:
        raise ValueError(f"run for n={result.n} produced no polygon: {result.message}")
    target = Path(out_dir) / f"n{result.n:03d}"
    artifacts = {
        "polygon": (polygon_to_json(result.polygon), ".json"),
        "trace": (trace_csv(result), ".csv"),
        "structure": (verification.report_to_json(report), ".json"),
        "drawing": (render_svg(result.polygon), ".svg"),
    }
    written = []
    try:
        target.mkdir(parents=True, exist_ok=True)
        for kind, (content, suffix) in artifacts.items():
            digest = hashlib.sha256(content.encode("utf-8")).hexdigest()[:12]
            path = target / f"n{result.n:03d}-{kind}-{digest}{suffix}"
            path.write_text(content, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise OSError(f"failed to write run artifacts under {target}: {exc}") from exc
    return written
