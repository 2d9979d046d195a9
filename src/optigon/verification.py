"""Structural checks on computed polygons.

For even n >= 6 the optimal small n-gon is expected to have a unit-distance
graph consisting of an (n-1)-cycle plus one pendant edge at the apex vertex
n/2, mirror symmetry across x = 0, and an explicit list of unit-distance
chords. These checks quantify how far any given polygon is from that
structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .geometry import Polygon, diameter_graph

__all__ = [
    "TOL_FINAL",
    "CycleCheck",
    "SymmetryCheck",
    "UnitDistanceCheck",
    "StructureReport",
    "check_pendant_cycle",
    "check_axial_symmetry",
    "check_unit_distance_chords",
    "verify_structure",
    "report_to_json",
]

#: Verification tolerance for final iterates of a converged run.
TOL_FINAL = 1e-6


@dataclass(frozen=True)
class CycleCheck:
    has_pendant_cycle: bool
    cycle_length: int
    pendant_vertex: int | None


@dataclass(frozen=True)
class SymmetryCheck:
    symmetry_defect: float
    apex_defect: float
    symmetric: bool
    apex_ok: bool


@dataclass(frozen=True)
class UnitDistanceCheck:
    defects: tuple[tuple[tuple[int, int], float], ...]
    max_defect: float
    all_unit: bool


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


def check_pendant_cycle(polygon: Polygon, tol: float) -> CycleCheck:
    """Is the unit-distance graph an (n-1)-cycle plus one pendant edge?

    Detection by degree count: one degree-1 vertex attached to a degree-3
    vertex on the cycle, every other vertex of degree 2, and a single cycle
    traversal covering the remaining n-1 vertices.
    """
    if polygon.n % 2 != 0:
        raise ValueError("pendant-cycle structure is defined for even n")
    graph = diameter_graph(polygon, tol_diam=tol)
    n = polygon.n
    failed = CycleCheck(has_pendant_cycle=False, cycle_length=0, pendant_vertex=None)

    deg = graph.degrees()
    leaves = [i for i in range(n) if deg[i] == 1]
    if len(leaves) != 1:
        return failed
    pendant = leaves[0]
    anchor = next(iter(graph.neighbors(pendant)))
    expected = {anchor: 3, pendant: 1}
    for i in range(n):
        if deg[i] != expected.get(i, 2):
            return failed

    # walk the cycle from the anchor, never using the pendant edge
    cycle_neighbors = sorted(graph.neighbors(anchor) - {pendant})
    if len(cycle_neighbors) != 2:
        return failed
    prev, cur = anchor, cycle_neighbors[0]
    length = 1
    visited = {anchor}
    while cur != anchor:
        if cur in visited:
            return failed
        visited.add(cur)
        nbrs = [j for j in graph.neighbors(cur) if j != prev]
        if len(nbrs) != 1:
            return failed
        prev, cur = cur, nbrs[0]
        length += 1
    if length != n - 1 or len(visited) != n - 1:
        return failed
    return CycleCheck(has_pendant_cycle=True, cycle_length=length, pendant_vertex=pendant)


def check_axial_symmetry(polygon: Polygon, tol: float) -> SymmetryCheck:
    """Mirror symmetry across x = 0: x_{n-i} = -x_i, y_{n-i} = y_i, apex at (0, 1)."""
    if polygon.n % 2 != 0:
        raise ValueError("axial symmetry check is defined for even n")
    v = polygon.vertices
    n = polygon.n
    defect = 0.0
    for i in range(1, n // 2):
        defect = max(defect, abs(v[n - i, 0] + v[i, 0]), abs(v[n - i, 1] - v[i, 1]))
    apex = float(max(abs(v[n // 2, 0]), abs(v[n // 2, 1] - 1.0)))
    defect = float(defect)
    return SymmetryCheck(
        symmetry_defect=defect,
        apex_defect=apex,
        symmetric=defect <= tol,
        apex_ok=apex <= tol,
    )


def unit_chord_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs expected at unit distance in the optimal structure."""
    if n % 2 != 0 or n < 6:
        raise ValueError("unit chord list is defined for even n >= 6")
    half = n // 2
    pairs = [(0, half - 1), (0, half + 1)]
    for i in range(1, half - 1):
        pairs.append((i, i + half))
        pairs.append((i, i + half + 1))
    pairs.append((half - 1, n - 1))
    return pairs


def check_unit_distance_chords(polygon: Polygon, tol: float) -> UnitDistanceCheck:
    """Defects |distance - 1| for every expected unit chord."""
    v = polygon.vertices
    defects = []
    worst = 0.0
    for i, j in unit_chord_pairs(polygon.n):
        dist = math.hypot(v[j, 0] - v[i, 0], v[j, 1] - v[i, 1])
        defect = abs(dist - 1.0)
        worst = max(worst, defect)
        defects.append(((i, j), defect))
    return UnitDistanceCheck(
        defects=tuple(defects), max_defect=worst, all_unit=worst <= tol
    )


def verify_structure(polygon: Polygon, tol: float = TOL_FINAL) -> StructureReport:
    """Run all three structural checks and aggregate into one report.

    Raises ValueError unless tol is finite and positive.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    cycle = check_pendant_cycle(polygon, tol)
    sym = check_axial_symmetry(polygon, tol)
    unit = check_unit_distance_chords(polygon, tol)
    max_defect = max(sym.symmetry_defect, sym.apex_defect, unit.max_defect)
    return StructureReport(
        n=polygon.n,
        tol=tol,
        has_pendant_cycle=cycle.has_pendant_cycle,
        cycle_length=cycle.cycle_length,
        pendant_vertex=cycle.pendant_vertex,
        symmetry_defect=sym.symmetry_defect,
        apex_defect=sym.apex_defect,
        unit_edge_defects=unit.defects,
        max_defect=max_defect,
    )


def report_to_json(report: StructureReport) -> str:
    payload = {
        "n": report.n,
        "tol": report.tol,
        "passed": report.passed,
        "has_pendant_cycle": report.has_pendant_cycle,
        "cycle_length": report.cycle_length,
        "pendant_vertex": report.pendant_vertex,
        "symmetry_defect": report.symmetry_defect,
        "apex_defect": report.apex_defect,
        "max_defect": report.max_defect,
        "unit_edge_defects": [
            {"pair": list(pair), "defect": defect}
            for pair, defect in report.unit_edge_defects
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
