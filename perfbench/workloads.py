"""The benchmark's workloads: seeded inputs, the solve, and its exact checks.

Each workload has an ``*_inputs(seed)`` function that makes its inputs
without calling into plucker, and a ``solve(inputs, bench, checks)`` that
calls the layers and checks every answer exactly.  ``bench`` is a tracer (or
the null tracer) for spans and counts the benchmark records itself; the
layer spans come from ``spans.instrument`` with ``TARGETS``.  Why each
workload exists, and which layers it loads, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from plucker import (
    cli,
    exact_linalg,
    graph_core,
    invariant_ring,
    relations,
    symmetry_rep,
    toric_rewriting,
    toric_trees,
)


class Checks:
    """Counts exact checks; a failed one is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, what: str, got, want) -> bool:
        if got == want:
            self.attempted += 1
            return True
        self.fail(f"{what}: got {got!r}, want {want!r}")
        return False

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class NullTracer:
    """Stands in for a tracer in untraced runs."""

    def span(self, _name):
        return contextlib.nullcontext()

    def count(self, _name, _amount=1):
        pass


# --- counters attached to layer calls (traced runs only) ------------------------

def _count_distinct(counter: str, size):
    """Count the size of each result object once; cached results repeat."""
    seen: set[int] = set()

    def on_result(tracer, _args, result):
        if id(result) not in seen:
            seen.add(id(result))
            tracer.count(counter, size(result))
    return on_result


def _count_calls(counter: str):
    def on_result(tracer, _args, _result):
        tracer.count(counter)
    return on_result


def _on_span_add(tracer, args, grew):
    tracer.count("exact_linalg.span_adds")
    if grew:
        tracer.count("exact_linalg.span_useful")
        row = next(reversed(args[0].pivots.values()))
        tracer.maximum("exact_linalg.span_max_coeff_bits",
                       max(abs(v).bit_length() for v in row.values()))


# (module, function or Class.method, span name, counter callback).  Spans are
# named "<layer>.<operation>"; several functions may share one operation.
TARGETS = (
    ("graph_core", "enumerate_noncrossing_regular", "graph_core.enumerate",
     _count_distinct("graph_core.graphs_emitted", len)),
    ("invariant_ring", "straighten_graph", "invariant_ring.straighten",
     _count_calls("invariant_ring.straighten_calls")),
    ("invariant_ring", "straighten", "invariant_ring.straighten", None),
    ("invariant_ring", "evaluate", "invariant_ring.evaluate", None),
    ("invariant_ring", "hilbert_dim", "invariant_ring.hilbert_dim", None),
    ("relations", "sym_basis", "relations.sym_basis", None),
    ("relations", "coords_vector", "relations.coords", None),
    ("relations", "ideal_component_dim", "relations.ideal_dim", None),
    ("relations", "project_to_ring", "relations.project", None),
    ("relations", "quadratic_ideal_component", "relations.quadratic_ideal", None),
    # relation_matrix's own time, with enumeration and straightening taken
    # out as child spans, is the matrix assembly.
    ("relations", "relation_matrix", "exact_linalg.matrix_build",
     _count_distinct("exact_linalg.matrix_nnz", lambda m: len(m.entries))),
    ("exact_linalg", "rank", "exact_linalg.rank", None),
    ("exact_linalg", "kernel_basis", "exact_linalg.kernel", None),
    ("exact_linalg", "matvec", "exact_linalg.matvec", None),
    ("exact_linalg", "IncrementalSpan.add", "exact_linalg.span_add", _on_span_add),
    ("exact_linalg", "IncrementalSpan.contains", "exact_linalg.span_contains", None),
    ("symmetry_rep", "act_sym", "symmetry_rep.act",
     _count_calls("symmetry_rep.perms_tried")),
    ("symmetry_rep", "act_ring", "symmetry_rep.act", None),
    ("symmetry_rep", "character_of_action", "symmetry_rep.characters", None),
    ("symmetry_rep", "decompose", "symmetry_rep.characters", None),
    ("symmetry_rep", "filtration_dim", "symmetry_rep.filtration", None),
    ("symmetry_rep", "gr_dim", "symmetry_rep.filtration", None),
    ("toric_trees", "enumerate_admissible_regular", "toric_trees.enumerate",
     _count_calls("toric_trees.weightings")),
    ("toric_trees", "greedy_graph", "toric_trees.greedy", None),
    ("toric_trees", "weighting_of_graph", "toric_trees.weighting", None),
    ("toric_trees", "count_admissible_regular", "toric_trees.count", None),
    ("toric_rewriting", "normal_form", "toric_rewriting.normal_form",
     _count_calls("toric_rewriting.tuples")),
    ("toric_rewriting", "balance", "toric_rewriting.balance",
     _count_calls("toric_rewriting.tuples")),
    ("toric_rewriting", "quadratic_neighbors", "toric_rewriting.neighbors", None),
    ("reports", "run_criterion", lambda name, *_a, **_k: f"reports.{name}", None),
    ("cli", "main", "cli.main", None),
)

# --- acceptance: the command users run -----------------------------------------

def acceptance_inputs(seed: int) -> dict:
    return {"argv": ["report", "all", "--json", "--seed", str(seed)], "criteria": 15}


def solve_acceptance(inputs: dict, bench, checks: Checks) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(inputs["argv"])
    checks.expect("exit code", code, 0)
    criteria = json.loads(out.getvalue())["criteria"]
    checks.expect("criteria run", len(criteria), inputs["criteria"])
    for crit in criteria:
        checks.expect(crit["criterion"], crit["pass"], True)


# --- ideal_scale: dim I2_12 from enumeration, straightening and exact rank -----
#
# The size parameters of ``ideal_inputs`` and ``orbit_inputs`` default to the
# benchmark's sizes; the tests call them tiny.

def ideal_inputs(seed: int, n: int = 12, rows: int = 4213, cols: int = 8778,
                 nnz: int = 58132, samples: int = 200) -> dict:
    """Expected sizes of the degree-2 projection matrix, and sample columns.

    At n = 12 the rows are the 4213 non-crossing 2-regular graphs and the
    columns the 8778 multisets of two of the 132 non-crossing matchings.
    """
    rng = random.Random(seed)
    columns = rng.sample(range(cols), samples)
    points = [rng.sample(range(-60, 61), n) for _ in columns]
    return {"n": n, "rows": rows, "cols": cols, "nnz": nnz,
            "samples": list(zip(columns, points))}


def _product_graph(mono):
    """Edges and Y-sign of a monomial of matchings, multiplied out."""
    sign = 1
    edges: list = []
    for layer in mono:
        sign *= graph_core.orientation_sign(layer)
        edges.extend(layer)
    return sign, tuple(sorted(edges))


def solve_ideal_scale(inputs: dict, bench, checks: Checks) -> None:
    n = inputs["n"]
    rows = graph_core.enumerate_noncrossing_regular(n, 2)
    basis = relations.sym_basis(n, 2)
    columns = []
    for mono in basis:
        sign, edges = _product_graph(mono)
        columns.append((sign, edges, invariant_ring.straighten_graph(n, edges)))
    # relation_matrix refuses n = 12, so assemble the matrix the same way
    # from the public calls above.
    with bench.span("exact_linalg.matrix_build"):
        row_index = {g: i for i, g in enumerate(rows)}
        m = exact_linalg.QMatrix(len(rows), len(basis))
        for j, (sign, _, expansion) in enumerate(columns):
            for g, c in expansion.items():
                m.set(row_index[g], j, sign * c)
        m.freeze()
    bench.count("exact_linalg.matrix_nnz", len(m.entries))
    rank = exact_linalg.rank(m)
    checks.expect("rows", len(rows), inputs["rows"])
    checks.expect("columns", len(basis), inputs["cols"])
    checks.expect("nonzeros", len(m.entries), inputs["nnz"])
    checks.expect("rank = hilbert_dim", rank, invariant_ring.hilbert_dim(n, 2))
    checks.expect("full row rank", rank, inputs["rows"])
    for j, xs in inputs["samples"]:
        _, edges, expansion = columns[j]
        config = invariant_ring.PointConfig.from_integers(xs)
        direct = invariant_ring.evaluate(invariant_ring.RingElement(n, {edges: 1}), config)
        straightened = invariant_ring.evaluate(
            invariant_ring.RingElement(n, dict(expansion)), config)
        checks.expect(f"column {j} at {xs}", straightened, direct)


# --- orbit_scale: one simplest binomial generates I2_10 -------------------------

def orbit_inputs(seed: int, n: int = 10, target: int = 300,
                 doubled=((9, 10),), cap: int = 1500) -> dict:
    """Seeded random permutations, at most ``cap``; ``target`` is dim I2_n."""
    rng = random.Random(seed)
    perms = []
    for _ in range(cap):
        image = list(range(1, n + 1))
        rng.shuffle(image)
        perms.append(dict(zip(range(1, n + 1), image)))
    return {"n": n, "target": target, "doubled": list(doubled), "perms": perms}


def solve_orbit_scale(inputs: dict, bench, checks: Checks) -> None:
    n = inputs["n"]
    rel = relations.simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7),
                                      doubled_rest=inputs["doubled"])
    checks.expect("relation projects to zero",
                  relations.project_to_ring(rel).is_zero(), True)
    target = relations.ideal_component_dim(n, 2)
    checks.expect(f"dim I2_{n}", target, inputs["target"])
    span = exact_linalg.IncrementalSpan(len(relations.sym_basis(n, 2)))
    for sigma in inputs["perms"]:
        if span.dim >= target:
            break
        span.add(relations.coords_vector(symmetry_rep.act_sym(sigma, rel)))
    checks.expect(f"orbit rank within {len(inputs['perms'])} permutations",
                  span.dim, target)


# --- toric_scale: the toric degeneration at n = 10 and 12 -----------------------

def toric_inputs(seed: int) -> dict:
    """Round-trip cases (Y-tree r, degree, weightings) and rewriting trials.

    The first case's count is also checked against ``hilbert_dim(2r, d)``.
    A trial is a caterpillar r and random picks from its unbreakable reduced
    matchings, so the inputs need no call into plucker.
    """
    rng = random.Random(seed)
    caterpillars = [6, 7, 8]
    picks = [(rng.choice(caterpillars),
              [rng.getrandbits(32) for _ in range(rng.randint(1, 4))])
             for _ in range(2000)]
    return {"cases": [(6, 2, 4213), (5, 3, 4269)], "caterpillars": caterpillars,
            "trials": picks}


def solve_toric_scale(inputs: dict, bench, checks: Checks) -> None:
    counts = []
    for r, d, want in inputs["cases"]:
        tree = toric_trees.build_y_tree(r)
        seen = 0
        for w in toric_trees.enumerate_admissible_regular(tree, d):
            graph = toric_trees.greedy_graph(w)
            back = toric_trees.weighting_of_graph(graph, tree)
            checks.expect(f"round trip r={r} d={d} {w.weights}", back, w)
            seen += 1
        counts.append(toric_trees.count_admissible_regular(tree, d))
        checks.expect(f"enumerated r={r} d={d}", seen, want)
        checks.expect(f"counted r={r} d={d}", counts[-1], seen)
    r, d, _ = inputs["cases"][0]
    checks.expect(f"count = hilbert_dim({2 * r}, {d})", counts[0],
                  invariant_ring.hilbert_dim(2 * r, d))
    pools = {r: [m for m in toric_rewriting.enumerate_reduced_matchings(r)
                 if m.is_unbreakable()] for r in inputs["caterpillars"]}
    for r, picks in inputs["trials"]:
        pool = pools[r]
        tup = tuple(pool[x % len(pool)] for x in picks)
        total = toric_rewriting.sum_weighting(tup)
        nf = toric_rewriting.normal_form(tup)
        balanced = toric_rewriting.balance(tup)
        ok = (toric_rewriting.normal_form(nf) == nf
              and toric_rewriting.sum_weighting(nf) == total
              and toric_rewriting.sum_weighting(balanced) == total
              and toric_rewriting.is_balanced(balanced))
        checks.expect(f"rewriting {[str(m) for m in tup]}", ok, True)


# name -> (inputs at the benchmark's sizes, solve)
WORKLOADS = {
    "acceptance": (acceptance_inputs, solve_acceptance),
    "ideal_scale": (ideal_inputs, solve_ideal_scale),
    "orbit_scale": (orbit_inputs, solve_orbit_scale),
    "toric_scale": (toric_inputs, solve_toric_scale),
}
