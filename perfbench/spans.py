"""In-memory spans recorded at the layer boundaries of the solve path.

Spans are recorded from outside the product: the benchmark opens one
around each call it makes into a bidopt module, and ``RecordingEngine``
stands in for the ``SimplexEngine`` passed to ``branch_and_bound`` so
that each LP solve gets its own span.  ``branch_and_bound`` and
``strategy3_hotstart`` touch their engine only through ``solve``, which
is what makes the stand-in sufficient.

Span names are the layer names used by the per-layer metrics:

    solve                    one request: the whole timed path of a solve
      fileio.read            fileio.read_instance
      model.build            build_model, then relax_to_sos2 in SOS2 modes
      simplex.setup          SimplexEngine(model)
      search.branch_and_bound
        simplex.solve        one per LP solve, in call order
      fileio.write           fileio.write_solution and the file write
    fileio.verify            read_solution + verify_solution (not timed)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name, "id": self.id, "parent": self.parent,
            "request": self.request, "start": self.start, "end": self.end,
            **self.attrs,
        }


class Tracer:
    """Collects spans in memory; the caller writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        sp = Span(name, len(self.spans), parent, self.request, 0.0, attrs=attrs)
        self.spans.append(sp)
        self._open.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()


class RecordingEngine:
    """Forwards ``solve`` to a real engine and records one span per call,
    with its iterations, its status, and whether a bounds override and a
    warm token were passed."""

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer

    def solve(self, bounds=None, warm=None, max_iterations=None):
        with self._tracer.span(
            "simplex.solve", bounded=bool(bounds), warm=warm is not None
        ) as sp:
            sol = self._engine.solve(
                bounds=bounds, warm=warm, max_iterations=max_iterations
            )
        sp.attrs["iterations"] = sol.iterations
        sp.attrs["status"] = sol.status
        return sol


def children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            out.setdefault(sp.parent, []).append(sp)
    return out


def self_time(span: Span, kids: list[Span]) -> float:
    """The span's duration minus the part of it that its children cover."""
    covered = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


def split_solves(solves: list[Span], nodes: int) -> tuple[list, list, list]:
    """Root, fixing and node LP solves of one branch_and_bound call.

    The first solve is the root.  Node 0 reuses the cached start
    solution, so the last ``max(nodes - 1, 0)`` solves are node LPs and
    the ones between are the fixing pass.
    """
    node_count = max(nodes - 1, 0)
    if not solves or node_count > len(solves) - 1:
        raise ValueError(f"{len(solves)} solves cannot hold a root and {node_count} node LPs")
    fixing_end = len(solves) - node_count
    return solves[:1], solves[1:fixing_end], solves[fixing_end:]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass over a workload's solves.

    Times and counts are summed over the pass's requests; a ratio whose
    base is zero (milliseconds per node on a run that builds no nodes)
    reads 0.
    """
    kids = children(spans)
    t: dict[str, float] = dict.fromkeys(
        ("fileio.read", "fileio.write", "fileio.verify", "model.build",
         "simplex.setup", "model.rows", "model.columns", "model.nnz",
         "search.s", "search.self_s", "search.nodes", "search.fixing_s",
         "search.fixing_solves", "root_s", "root_iters", "node_lp_s",
         "node_solves", "node_infeasible", "busy_s", "solves", "iters",
         "warm", "limit"),
        0.0,
    )
    for sp in spans:
        if sp.name in ("fileio.read", "fileio.write", "fileio.verify", "simplex.setup"):
            t[sp.name] += sp.seconds
        elif sp.name == "model.build":
            t[sp.name] += sp.seconds
            for key in ("rows", "columns", "nnz"):
                t["model." + key] += sp.attrs[key]
        elif sp.name == "search.branch_and_bound":
            lp = kids.get(sp.id, [])
            root, fixing, node = split_solves(lp, sp.attrs["nodes"])
            t["search.s"] += sp.seconds
            t["search.self_s"] += self_time(sp, lp)
            t["search.nodes"] += sp.attrs["nodes"]
            t["search.fixing_s"] += sum(s.seconds for s in fixing)
            t["search.fixing_solves"] += len(fixing)
            t["root_s"] += sum(s.seconds for s in root)
            t["root_iters"] += sum(s.attrs["iterations"] for s in root)
            t["node_lp_s"] += sum(s.seconds for s in node)
            t["node_solves"] += len(node)
            t["node_infeasible"] += sum(s.attrs["status"] == "infeasible" for s in node)
            t["busy_s"] += sum(s.seconds for s in lp)
            t["solves"] += len(lp)
            t["iters"] += sum(s.attrs["iterations"] for s in lp)
            t["warm"] += sum(s.attrs["warm"] for s in lp)
            t["limit"] += sum(s.attrs["status"] == "iteration-limit" for s in lp)

    return {
        "model.build_s": t["model.build"],
        "model.rows": t["model.rows"],
        "model.columns": t["model.columns"],
        "model.nnz": t["model.nnz"],
        "simplex.setup_s": t["simplex.setup"],
        "simplex.root_s": t["root_s"],
        "simplex.root_iters": t["root_iters"],
        "simplex.root_ms_per_iter": 1000.0 * _ratio(t["root_s"], t["root_iters"]),
        "simplex.solves": t["solves"],
        "simplex.busy_s": t["busy_s"],
        "simplex.iters": t["iters"],
        "simplex.iters_per_solve": _ratio(t["iters"], t["solves"]),
        "simplex.ms_per_iter": 1000.0 * _ratio(t["busy_s"], t["iters"]),
        "simplex.warm_share": _ratio(t["warm"], t["solves"]),
        "simplex.infeasible_share": _ratio(t["node_infeasible"], t["node_solves"]),
        "simplex.limit_count": t["limit"],
        "search.s": t["search.s"],
        "search.self_s": t["search.self_s"],
        "search.nodes": t["search.nodes"],
        "search.node_lp_ms": 1000.0 * _ratio(t["node_lp_s"], t["node_solves"]),
        "search.self_ms_per_node": 1000.0 * _ratio(t["search.self_s"], t["search.nodes"]),
        "search.fixing_s": t["search.fixing_s"],
        "search.fixing_solves": t["search.fixing_solves"],
        "fileio.read_s": t["fileio.read"],
        "fileio.write_s": t["fileio.write"],
        "fileio.verify_s": t["fileio.verify"],
    }
