"""Spans around calls into optigon's layers, recorded from outside the package.

The tracer replaces a module attribute with a wrapper at the place where the
caller looks the function up (``from ... import`` binds a copy, so e.g.
``build_restriction`` is wrapped in ``optigon.ccp``, not in
``optigon.formulation``). Each call records one span

    [name, start_ns, end_ns, parent_index, instance, info]

in memory; ``info`` holds counts read off the return value. Spans are kept
until the benchmark writes them out at the end of a run. The benchmark runs
``optigon sweep`` with ``--jobs 1``, so every span is in one process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path

# (span name, module the caller looks the function up in, attribute)
PUBLIC_HOOKS = (
    ("ccp.maximize_area", "optigon.ccp", "maximize_area"),
    ("ccp.step", "optigon.ccp", "step"),
    ("formulation.build_program", "optigon.ccp", "build_program"),
    ("formulation.build_restriction", "optigon.ccp", "build_restriction"),
    ("formulation.evaluate", "optigon.ccp", "evaluate"),
    ("conic_solver.lift", "optigon.ccp", "lift"),
    ("conic_solver.solve", "optigon.ccp", "solve"),
    ("conic_solver.lapack_factor", "optigon.conic_solver", "cho_factor"),
    ("conic_solver.lapack_solve", "optigon.conic_solver", "cho_solve"),
    ("verification.verify_structure", "optigon.verification", "verify_structure"),
    ("geometry.load_polygon", "optigon.cli", "load_polygon"),
    ("reporting.export_run", "optigon.reporting", "export_run"),
    ("reporting.render_svg", "optigon.reporting", "render_svg"),
)

# Private hooks only feed derived counts; a rename makes those counts missing.
PRIVATE_HOOKS = (
    ("conic_solver.solve_inner", "optigon.conic_solver", "_solve_inner"),
    ("conic_solver.initial_point", "optigon.conic_solver", "_initial_point"),
)

# spans the benchmark opens around its own calls into the CLI
CLI_SPANS = ("cli.sweep", "cli.verify", "cli.render")

REPORTED_FUNCTIONS = tuple(name for name, _, _ in PUBLIC_HOOKS) + CLI_SPANS

LAYERS = ("ccp", "formulation", "conic_solver", "verification", "geometry",
          "reporting", "cli", "bench")

# Counts that must repeat exactly between two traced runs of the same code.
EXACT_COUNTS = (
    "ccp.outer_iters",
    "conic_solver.ipm_iters",
    "conic_solver.refine_passes",
    "conic_solver.reg_escalations",
    "conic_solver.cold_retries",
)

MISSING = -1


def _iterations(result):
    return {"iterations": int(result.iterations)}


def _cone_shape(cone):
    return {"rows": int(cone.n_rows), "soc": int(cone.n_soc), "nnz": int(cone.G.nnz)}


INFO = {
    "ccp.maximize_area": _iterations,
    "conic_solver.solve": _iterations,
    "conic_solver.solve_inner": _iterations,
    "conic_solver.lift": _cone_shape,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, module_name, attr) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        info = INFO.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                try:
                    span[5] = info(result)
                except AttributeError:
                    span[5] = None
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def install(self) -> None:
        for name, module_name, attr in PUBLIC_HOOKS + PRIVATE_HOOKS:
            self._wrap(name, module_name, attr)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "instance", "info")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# derived per-layer metrics

def self_times(spans: list[list]) -> list[int]:
    """Span duration minus the part its direct children cover, in ns."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], missing_hooks: list[str]) -> dict[str, float]:
    """Per-function sums, per-layer self time and solver counts for one pass."""
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total_ns[s[0]] = total_ns.get(s[0], 0) + (s[2] - s[1])
        calls[s[0]] = calls.get(s[0], 0) + 1
    missing_names = {
        name for name, module, attr in PUBLIC_HOOKS + PRIVATE_HOOKS
        if f"{module}.{attr}" in missing_hooks
    }

    def secs(name):
        return total_ns.get(name, 0) / 1e9

    out: dict[str, float] = {}
    for name in REPORTED_FUNCTIONS:
        if name in missing_names:
            out[f"{name}_s"] = MISSING
            out[f"{name}_calls"] = MISSING
        else:
            out[f"{name}_s"] = secs(name)
            out[f"{name}_calls"] = calls.get(name, 0)

    own = self_times(spans)
    layer_ns = dict.fromkeys(LAYERS, 0)
    for s, ns in zip(spans, own):
        layer = s[0].split(".", 1)[0]
        layer_ns[layer] = layer_ns.get(layer, 0) + ns
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_ns[layer] / 1e9

    def info_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    outer = info_sum("ccp.maximize_area", "iterations")
    out["ccp.outer_iters"] = outer
    out["ccp.s_per_outer_iter"] = secs("ccp.maximize_area") / outer if outer else 0.0

    solves = calls.get("conic_solver.solve", 0)
    ipm = info_sum("conic_solver.solve", "iterations")
    out["conic_solver.ipm_iters"] = ipm
    out["conic_solver.ipm_iters_per_solve"] = ipm / solves if solves else 0.0
    out["conic_solver.ipm_other_s"] = (
        secs("conic_solver.solve")
        - secs("conic_solver.lapack_factor")
        - secs("conic_solver.lapack_solve")
    )

    lifts = [s[5] for s in spans if s[0] == "conic_solver.lift" and s[5]]
    for metric, key in (("cone_rows", "rows"), ("soc_blocks", "soc"), ("G_nnz", "nnz")):
        out[f"conic_solver.{metric}"] = (
            sum(info[key] for info in lifts) / len(lifts) if lifts else 0.0
        )

    inner = calls.get("conic_solver.solve_inner", 0)
    steps = info_sum("conic_solver.solve_inner", "iterations")
    init_solves = sum(
        1 for s in spans
        if s[0] == "conic_solver.lapack_solve" and s[3] >= 0
        and spans[s[3]][0] == "conic_solver.initial_point"
    )
    derived = {
        # each IPM step makes two Newton solves; the rest are refinement passes
        "refine_passes": (
            calls.get("conic_solver.lapack_solve", 0) - 2 * steps - init_solves,
            {"solve_inner", "initial_point", "lapack_solve"},
        ),
        # one factorization per step and one per starting point; the rest retried
        # with a larger regularization
        "reg_escalations": (
            calls.get("conic_solver.lapack_factor", 0) - steps - inner,
            {"solve_inner", "lapack_factor"},
        ),
        "cold_retries": (inner - solves, {"solve_inner"}),
    }
    for metric, (value, needs) in derived.items():
        lost = {f"conic_solver.{hook}" for hook in needs} & missing_names
        out[f"conic_solver.{metric}"] = MISSING if lost else value
    return out
