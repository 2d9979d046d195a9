"""Result tables, SVG renderings, and on-disk run artifacts."""

from __future__ import annotations

from pathlib import Path

# CPython's own SHA-256, as random.py takes it: hashlib would load OpenSSL's
# libcrypto, 3.5 MB of peak RSS, for the names of the run artifacts
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

from . import verification
from .ccp import CcpResult
from .geometry import Polygon, diameter_graph, pendant_area, polygon_to_json, upper_bound
from .literature import lower_bound

__all__ = [
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


def _cells(result: CcpResult) -> tuple[str, ...]:
    """The six table columns of one run: n, the pendant, literature and
    upper-bound areas, the computed area, and the outer iterations. Areas
    print at 10 decimals, a missing literature bound as --."""
    n = result.n
    areas = (pendant_area(n), lower_bound(n), upper_bound(n), result.area)
    return (
        str(n),
        *("--" if a is None else f"{a:.10f}" for a in areas),
        str(result.iterations),
    )


def render_table_csv(results: list[CcpResult]) -> str:
    return "\n".join([CSV_HEADER, *(",".join(_cells(r)) for r in results)]) + "\n"


def render_table_text(results: list[CcpResult]) -> str:
    lines = [TEXT_HEADER]
    for r in results:
        n, pendant, literature, upper, computed, iterations = _cells(r)
        lines.append(
            f"{n:>4} | {pendant} | {literature:<12} | {upper} | {computed} | {iterations:>10}"
        )
    return "\n".join(lines) + "\n"


#: Width and height of an SVG drawing, in pixels.
SVG_SIZE = 480


def render_svg(polygon: Polygon, *, vertex_labels: bool = False) -> str:
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
    scale = SVG_SIZE / span

    def px(point):
        return (point[0] - xmin) * scale, (ymax - point[1]) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
    ]
    for i in range(n):
        (x1, y1), (x2, y2) = px(v[i]), px(v[(i + 1) % n])
        lines.append(
            f'  <line class="boundary" x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="#555555" stroke-width="1.5" '
            f'stroke-dasharray="7 5" fill="none"/>'
        )
    for i, j in diameter_graph(polygon):
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
    for rec in result.trace:
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

    Files land in a per-n subdirectory and carry the first 12 hex digits of
    their content's SHA-256 in their names, so identical runs export to
    identical trees. The digest comes from CPython's built-in module, so
    exporting loads no OpenSSL. `report` is the run's structure report at
    the default tolerance.
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
            digest = sha256(content.encode("utf-8")).hexdigest()[:12]
            path = target / f"n{result.n:03d}-{kind}-{digest}{suffix}"
            path.write_text(content, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise OSError(f"failed to write run artifacts under {target}: {exc}") from exc
    return written
