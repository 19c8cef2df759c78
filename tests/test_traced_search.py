"""The real search traced as ``perfbench/run.py --trace 1`` traces it.

perfbench's per-layer metrics split one ``branch_and_bound`` call's
recorded LP solves into the root, the fixing pass and the node LPs
(``spans.split_solves``).  That split holds only while the search makes
exactly root + fixing + nodes - 1 solves through its engine (node 0
reuses the start solution); a search that solved on an engine of its
own would break the traced benchmark.
"""

import sys
from pathlib import Path

import pytest

from bidopt.generate import generate_instance, scale_suite
from bidopt.model import build_model
from bidopt.search import SearchLimits, branch_and_bound, relax_to_sos2
from bidopt.simplex import SimplexEngine

from test_search import TREE_PARAMS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from spans import RecordingEngine, Tracer, layer_metrics  # noqa: E402


def traced_search(model, strategy: str, limits: SearchLimits):
    tracer = Tracer()
    engine = RecordingEngine(SimplexEngine(model), tracer)
    with tracer.span("search.branch_and_bound") as search_span:
        report, _ = branch_and_bound(model, strategy, limits, engine=engine)
    search_span.attrs["nodes"] = report.nodes
    return report, tracer.spans, layer_metrics(tracer.spans)


@pytest.mark.parametrize(
    "case, nodes, fixing",
    [
        # SOS1 proved optimal: 433 nodes, no fixing pass
        ("tree-prove", 433, 0),
        # criterion 6a's SOS2 first solution: the root and strategy 3's
        # hot start, no node
        ("scale-first", 0, 1),
    ],
)
def test_recorded_solves_are_root_fixing_and_nodes(scale_base, case, nodes, fixing):
    if case == "tree-prove":
        model = build_model(generate_instance(TREE_PARAMS))
        report, spans, metrics = traced_search(model, "none", SearchLimits(first_solution=False))
    else:
        model = relax_to_sos2(build_model(scale_suite(scale_base, [2704])[0]))
        report, spans, metrics = traced_search(model, "3", SearchLimits())
    solves = [sp for sp in spans if sp.name == "simplex.solve"]
    assert report.nodes == nodes
    assert metrics["search.nodes"] == nodes
    assert metrics["search.fixing_solves"] == fixing
    assert len(solves) == metrics["simplex.solves"] == 1 + fixing + max(nodes - 1, 0)
    assert metrics["simplex.root_iters"] == solves[0].attrs["iterations"] > 0
    assert metrics["simplex.iters"] == sum(sp.attrs["iterations"] for sp in solves)
