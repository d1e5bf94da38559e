"""Names, units and arithmetic of the benchmark's metrics.

Kept free of plucker imports, so the parent process that starts the workers
never loads the program.
"""

from __future__ import annotations

import statistics

END_TO_END = {"solve_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Layers in call order; every span name starts with one of these or "bench".
LAYERS = ("cli", "reports", "graph_core", "invariant_ring", "relations",
          "exact_linalg", "symmetry_rep", "toric_trees", "toric_rewriting")

CRITERIA = ("kempe_dimensions", "sym3_dimension", "ideal_dimensions",
            "orbit_spans_quadratics", "cubics_from_quadratics",
            "partition_filtration", "representation_table", "hook_lengths",
            "good_bipartitions", "toric_hilbert", "greedy_round_trip",
            "toric_plucker", "rewriting", "relation_constructors",
            "figure_identities")

# Self time of each operation span, in seconds.
SELF_TIMES = (
    "graph_core.enumerate", "invariant_ring.straighten", "invariant_ring.evaluate",
    "invariant_ring.hilbert_dim",
    "relations.sym_basis", "relations.coords", "relations.ideal_dim",
    "relations.project", "relations.quadratic_ideal",
    "exact_linalg.matrix_build", "exact_linalg.rank", "exact_linalg.kernel",
    "exact_linalg.matvec", "exact_linalg.span_add", "exact_linalg.span_contains",
    "symmetry_rep.act", "symmetry_rep.characters", "symmetry_rep.filtration",
    "toric_trees.enumerate", "toric_trees.greedy", "toric_trees.weighting",
    "toric_trees.count", "toric_rewriting.normal_form", "toric_rewriting.balance",
    "toric_rewriting.neighbors",
)
COUNTS = (
    "graph_core.graphs_emitted", "invariant_ring.straighten_calls",
    "invariant_ring.memo_entries",
    "exact_linalg.matrix_nnz", "exact_linalg.span_adds",
    "exact_linalg.span_max_coeff_bits", "symmetry_rep.perms_tried",
    "toric_trees.weightings", "toric_rewriting.tuples",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{op}_s": "s" for op in SELF_TIMES}
    units.update({f"reports.{c}_s": "s" for c in CRITERIA})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS + ("bench",)})
    units.update({name: "count" for name in COUNTS})
    units["invariant_ring.memo_hit_ratio"] = "ratio"
    units["exact_linalg.span_useful_ratio"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.solve_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


def layer_metrics(times: dict, counters: dict, memo: dict, spans: int,
                  solve_s: float) -> dict[str, float]:
    """Per-layer values of one traced run (``trace_overhead_s`` aside).

    ``times`` is ``spans.span_times`` of the run, whose root span is "bench".
    Criterion times include the layer calls they make; every other time is
    self time.
    """
    out = {f"{op}_s": times.get(op, (0.0,))[0] for op in SELF_TIMES}
    for c in CRITERIA:
        out[f"reports.{c}_s"] = times.get(f"reports.{c}", (0.0, 0.0))[1]
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(t for name, (t, _, _) in times.items()
                                     if name.split(".")[0] == layer)
    for name in COUNTS:
        out[name] = counters.get(name, 0)
    lookups = memo["hits"] + memo["misses"]
    out["invariant_ring.memo_entries"] = memo["entries"]
    out["invariant_ring.memo_hit_ratio"] = memo["hits"] / lookups if lookups else 0.0
    adds = counters.get("exact_linalg.span_adds", 0)
    out["exact_linalg.span_useful_ratio"] = \
        counters.get("exact_linalg.span_useful", 0) / adds if adds else 0.0
    out["trace.spans"] = spans
    out["trace.solve_s"] = solve_s
    return out


def summarize(values) -> dict[str, float]:
    """Median, quartiles and interquartile spread as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (exclusive method);
    a single value is its own median and quartiles.
    """
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}
