"""Structural checks on computed polygons.

For even n >= 6 the optimal small n-gon is expected to have a unit-distance
graph consisting of an (n-1)-cycle plus one pendant edge at the apex vertex
n/2, mirror symmetry across x = 0, and an explicit list of unit-distance
chords. `verify_structure` measures how far a polygon is from that
structure; like the program, it takes even n >= 6 only.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .geometry import (
    TOL_FINAL, Polygon, diameter, diameter_graph, require_even_ge6, require_positive_real,
)

__all__ = [
    "TOL_FINAL",
    "StructureReport",
    "unit_chord_pairs",
    "verify_structure",
    "report_to_json",
]


@dataclass(frozen=True)
class StructureReport:
    n: int
    tol: float
    has_pendant_cycle: bool
    cycle_length: int
    pendant_vertex: int | None
    symmetry_defect: float
    apex_defect: float
    unit_edge_defects: tuple[tuple[tuple[int, int], float], ...]
    max_defect: float

    @property
    def passed(self) -> bool:
        return (
            self.has_pendant_cycle
            and self.pendant_vertex == self.n // 2
            and self.max_defect <= self.tol
        )


def unit_chord_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs expected at unit distance in the optimal structure."""
    require_even_ge6(n)
    half = n // 2
    pairs = [(0, half - 1), (0, half + 1)]
    for i in range(1, half - 1):
        pairs.append((i, i + half))
        pairs.append((i, i + half + 1))
    pairs.append((half - 1, n - 1))
    return pairs


def verify_structure(polygon: Polygon, tol: float = TOL_FINAL) -> StructureReport:
    """Measure how far the polygon is from the expected optimal structure.

    The report holds the pendant cycle of the unit-distance graph, the
    mirror defect max |x_{n-i} + x_i|, |y_{n-i} - y_i| over i = 1..n/2-1,
    the apex defect max |x_{n/2}|, |y_{n/2} - 1|, and |distance - 1| for
    every expected unit chord. A polygon wider than 1 + tol has no pendant
    cycle, so its report fails. Raises ValueError unless tol is a finite
    positive real number, not a bool, and n is even and >= 6.
    """
    require_positive_real("tol", tol)
    n = polygon.n
    require_even_ge6(n)
    v = polygon.vertices
    if diameter(polygon) > 1.0 + tol:
        has_cycle, cycle_length, pendant = False, 0, None
    else:
        has_cycle, cycle_length, pendant = _pendant_cycle(n, diameter_graph(polygon, tol))

    half = n // 2
    symmetry = 0.0
    for i in range(1, half):
        symmetry = max(symmetry, abs(v[n - i, 0] + v[i, 0]), abs(v[n - i, 1] - v[i, 1]))
    symmetry = float(symmetry)
    apex = float(max(abs(v[half, 0]), abs(v[half, 1] - 1.0)))

    defects = tuple(
        ((i, j), abs(math.hypot(v[j, 0] - v[i, 0], v[j, 1] - v[i, 1]) - 1.0))
        for i, j in unit_chord_pairs(n)
    )
    return StructureReport(
        n=n,
        tol=tol,
        has_pendant_cycle=has_cycle,
        cycle_length=cycle_length,
        pendant_vertex=pendant,
        symmetry_defect=symmetry,
        apex_defect=apex,
        unit_edge_defects=defects,
        max_defect=max(symmetry, apex, max(d for _, d in defects)),
    )


def _pendant_cycle(n: int, edges: list[tuple[int, int]]) -> tuple[bool, int, int | None]:
    """(True, n - 1, pendant vertex) if the graph on n vertices is an
    (n-1)-cycle plus one pendant edge, else (False, 0, None).

    Detection by degree count: one degree-1 vertex attached to a degree-3
    vertex on the cycle, every other vertex of degree 2, and a single cycle
    traversal covering the remaining n-1 vertices.
    """
    failed = (False, 0, None)
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    leaves = [i for i in range(n) if len(adj[i]) == 1]
    if len(leaves) != 1:
        return failed
    pendant = leaves[0]
    anchor = adj[pendant][0]
    expected = {anchor: 3, pendant: 1}
    if any(len(adj[i]) != expected.get(i, 2) for i in range(n)):
        return failed

    # walk the cycle from the anchor, never using the pendant edge; every
    # other vertex on the walk has degree 2, so only the anchor can repeat
    prev, cur = anchor, min(j for j in adj[anchor] if j != pendant)
    length = 1
    while cur != anchor:
        prev, cur = cur, next(j for j in adj[cur] if j != prev)
        length += 1
    return (True, length, pendant) if length == n - 1 else failed


def report_to_json(report: StructureReport) -> str:
    payload = asdict(report) | {
        "passed": report.passed,
        "unit_edge_defects": [
            {"pair": list(pair), "defect": defect}
            for pair, defect in report.unit_edge_defects
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
