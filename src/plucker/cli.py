"""Command-line front end: straightening, relations, reports, toric tools.

Exit codes: 0 success, 1 failed report criterion, 2 bad input,
70 internal fuel exhaustion.  All subcommands accept ``--json``.

The straightening memo lives in the process only; ``report --json`` shows
its hit, miss and entry counts for the run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import reports, symmetry_rep, toric_rewriting, toric_trees
from .graph_core import (
    check_work,
    graph_to_json,
    json_edges,
    json_int,
    json_ints,
    json_list,
    json_object,
    parse_graph,
    parse_graph_json,
    read_json,
)
from .invariant_ring import (
    FuelExhausted,
    PointConfig,
    RingElement,
    check_trace_cells,
    evaluate,
    hilbert_dim,
    straighten,
    x_of,
)
from .relations import (
    BinomialQuadDatum,
    GenSegreDatum,
    SquareRotationDatum,
    SymElement,
    evaluate_sym,
    ideal_component_dim,
    project_to_ring,
    segre8,
    segre_cubic,
    simple_binomial,
    simplest_binomial,
    generalized_segre,
    square_rotation,
)

EXIT_OK = 0
EXIT_CRITERION_FAILED = 1
EXIT_PARSE = 2
EXIT_FUEL = 70


def _read_arg(text: str) -> str:
    """Support @file and '-' (stdin) indirection for structured arguments."""
    if text == "-":
        return sys.stdin.read()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return fh.read()
    return text


def parse_element(text: str) -> RingElement:
    """Accept graph text, graph JSON, or ring-element JSON."""
    text = _read_arg(text).strip()
    if not text.startswith("{"):
        return x_of(*parse_graph(text))
    value = read_json(text, "element")
    if "terms" in value:
        return RingElement.from_json(value)
    return x_of(*parse_graph_json(value))


def _print(payload: dict, as_json: bool, text: str | None = None) -> None:
    print(json.dumps(payload, sort_keys=True) if as_json or text is None else text)


def cmd_straighten(args) -> int:
    e = parse_element(args.element)
    result = straighten(e)
    payload = {"command": "straighten", "input": read_json(e.to_json(), "element"),
               "output": read_json(result.to_json(), "element")}
    lines = [f"{c} * X{list(map(list, k))}" for k, c in sorted(result.terms.items())]
    _print(payload, args.json, "\n".join(lines) or "0")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    e = parse_element(args.element)
    xs = []
    for v in args.points.split(","):
        try:
            xs.append(int(v))
        except ValueError:
            raise ValueError(f"point of --points must be an integer, got {v!r}") from None
    if len(xs) != e.n:
        raise ValueError(f"need {e.n} points, got {len(xs)}")
    value = evaluate(e, PointConfig.from_integers(xs))
    _print({"command": "evaluate", "points": xs, "value": str(value)},
           args.json, str(value))
    return EXIT_OK


def cmd_hilbert(args) -> int:
    dim = hilbert_dim(args.n, args.degree)
    _print({"command": "hilbert", "n": args.n, "d": args.degree, "dim": dim},
           args.json, str(dim))
    return EXIT_OK


# toric round-trip refuses more weightings than this: near it, 52,844 (r = 6,
# degree 3) took 10-14 s and 54,131 (r = 4, degree 10) 30 s (2-vCPU VM, Python 3.11.7).
ROUND_TRIP_WEIGHTINGS = 60_000


def _tree_dp_updates(r: int, d: int) -> int:
    """Coefficient updates of the count DP on the r-th Y-tree at degree d: a
    trinode joining weights w1, w2 makes min(w1, w2) + 1.  From leaf 1, r - 1
    Y's join d with d, base vertex r - m joins 0..2d with 0..2dm (m = 1..r - 2)
    and the root joins d with 0..2d(r - 1); these sums have closed forms."""
    m, t, h = r - 2, (r - 2) * (r - 1) // 2, d // 2
    return ((r - 1) * (d + 1)
            + (d + 1) * (d * t + m) + d * (d + 1) * (3 * d * t + m * (1 - d)) // 3
            + (h + 1) ** 2 + (d * (r - 1) - h) * (d + 1))


def cmd_toric(args) -> int:
    # a tree vertex costs about 6 us and 1 KB; the DP's updates are degree_trace's
    check_work(f"the Y-tree at r={args.r}", 4 * args.r - 2)
    if args.action != "greedy" and args.r >= 3 and args.degree >= 0:
        check_trace_cells(f"the tree DP at r={args.r}, degree {args.degree}",
                          _tree_dp_updates(args.r, args.degree))
    tree = toric_trees.build_y_tree(args.r)
    if args.action == "count":
        count = toric_trees.count_admissible_regular(tree, args.degree)
        _print({"command": "toric-count", "r": args.r, "degree": args.degree,
                "count": count}, args.json, str(count))
        return EXIT_OK
    if args.action == "greedy":
        if not args.graph:
            raise ValueError("greedy needs --graph")
        n, edges = parse_graph(_read_arg(args.graph))
        if n != tree.num_leaves:
            raise ValueError(f"graph has n={n}, tree has {tree.num_leaves} leaves")
        # greedy_graph rescans the n leaves for the start of each of the edges' geodesics
        check_trace_cells(f"the greedy walk at r={args.r}", len(edges) * n, "leaf scans")
        w = toric_trees.weighting_of_graph(edges, tree)
        graph = toric_trees.greedy_graph(w)
        payload = {"command": "toric-greedy", "r": args.r,
                   "weights": list(w.weights),
                   "graph": [list(e) for e in graph]}
        _print(payload, args.json, graph_to_json(n, graph))
        return EXIT_OK
    # round-trip: exhaustive check at the given degree, counted first
    total = toric_trees.count_admissible_regular(tree, args.degree)
    if total > ROUND_TRIP_WEIGHTINGS:
        raise ValueError(f"the round trip at r={args.r}, degree {args.degree} has {total} "
                         f"weightings, over the limit of {ROUND_TRIP_WEIGHTINGS}")
    ok = all(toric_trees.weighting_of_graph(toric_trees.greedy_graph(w), tree) == w
             for w in toric_trees.enumerate_admissible_regular(tree, args.degree))
    payload = {"command": "toric-round-trip", "r": args.r, "degree": args.degree,
               "weightings": total, "pass": ok}
    _print(payload, args.json, f"{total} weightings, all round trip: {ok}")
    return EXIT_OK if ok else EXIT_CRITERION_FAILED


def _parse_cat_tuple(text: str):
    obj = read_json(_read_arg(text), "tuple")
    r = json_int(obj["r"], "r")
    entries = [json_object(ent, "entry") for ent in json_list(obj["entries"], "entries")]
    return tuple(toric_rewriting.CatWeighting(r, tuple(json_ints(ent["stalks"], "stalks")),
                                              tuple(json_ints(ent.get("bases", []), "bases")))
                 for ent in entries)


def cmd_normal_form(args) -> int:
    result = toric_rewriting.normal_form(_parse_cat_tuple(args.tuple))
    payload = {"command": "normal-form",
               "entries": [{"stalks": list(e.stalks), "bases": list(e.bases)}
                           for e in result]}
    _print(payload, args.json, "\n".join(str(e) for e in result))
    return EXIT_OK


# relations fixed by the paper, which take no --data
_FIXED_RELATIONS = {"segre": segre_cubic, "segre8": segre8}

_BUILTIN_RELATIONS = {
    "simplest": lambda data: simplest_binomial(
        tuple(json_ints(data["cycleA"], "cycleA")), tuple(json_ints(data["cycleB"], "cycleB")),
        json_edges(data.get("doubled_rest", []), "doubled_rest")),
    "simple": lambda data: simple_binomial(
        BinomialQuadDatum.from_json_dict(data)),
    "generalized-segre": lambda data: generalized_segre(
        GenSegreDatum.from_json_dict(data)),
    "square-rotation": lambda data: square_rotation(
        SquareRotationDatum.from_json_dict(data)),
}


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")


def cmd_relation(args) -> int:
    _check_trials(args.trials)
    if args.kind in _FIXED_RELATIONS:
        if args.data is not None:
            raise ValueError(f"{args.kind} takes no --data")
        rel = _FIXED_RELATIONS[args.kind]()
    else:
        data = read_json(_read_arg(args.data) if args.data else {}, f"{args.kind} datum")
        rel = _BUILTIN_RELATIONS[args.kind](data)
    payload = {"command": "relation", "kind": args.kind,
               "element": read_json(rel.to_json(), "element")}
    if args.action == "construct":
        _print(payload, args.json, rel.to_json())
        return EXIT_OK
    # verify: straightening projection and the evaluation oracle
    rng = random.Random(args.seed)
    projected = project_to_ring(rel).is_zero()
    values = [evaluate_sym(rel, reports.random_config(rel.n, rng))
              for _ in range(args.trials)]
    ok = projected and all(v == 0 for v in values)
    payload.update({"projects_to_zero": projected,
                    "evaluations": [str(v) for v in values], "pass": ok})
    _print(payload, args.json,
           f"projects_to_zero={projected} evaluates_to_zero={all(v == 0 for v in values)}")
    return EXIT_OK if ok else EXIT_CRITERION_FAILED


def cmd_ideal_dim(args) -> int:
    dim = ideal_component_dim(args.n, args.k)
    _print({"command": "ideal-dim", "n": args.n, "k": args.k, "dim": dim},
           args.json, str(dim))
    return EXIT_OK


def cmd_orbit_span(args) -> int:
    if args.builtin == "simplest8":
        rel = simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7))
    elif args.builtin == "segre6":
        rel = segre_cubic()
    elif args.element:
        rel = SymElement.from_json(_read_arg(args.element))
    else:
        raise ValueError("orbit-span needs --builtin or --element")
    rank, spans = symmetry_rep.orbit_span_check(rel)
    payload = {"command": "orbit-span", "n": rel.n, "degree": rel.degree,
               "rank": rank, "spans_ideal": spans}
    _print(payload, args.json, f"rank={rank} spans_ideal={spans}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    chi = symmetry_rep.character_of_action(args.n, args.space)
    dec = symmetry_rep.decompose(chi)
    payload = {"command": "decompose", "n": args.n, "space": args.space,
               "multiplicities": [{"partition": list(lam), "mult": m}
                                  for lam, m in sorted(dec.items())]}
    lines = [f"{'+'.join(map(str, lam))}: {m}" for lam, m in sorted(dec.items())]
    _print(payload, args.json, "\n".join(lines))
    return EXIT_OK


def cmd_report(args) -> int:
    _check_trials(args.trials)
    start = time.perf_counter()
    result = reports.run_suite(args.suite, seed=args.seed, trials=args.trials)
    result["seconds"] = round(time.perf_counter() - start, 3)
    if args.json:
        print(json.dumps(result, sort_keys=True, default=str))
    else:
        for crit in result["criteria"]:
            status = "PASS" if crit["pass"] else "FAIL"
            print(f"{status} {crit['criterion']} ({crit['seconds']}s)")
        print(f"suite {args.suite}: {'PASS' if result['pass'] else 'FAIL'} "
              f"({result['seconds']}s)")
    return EXIT_OK if result["pass"] else EXIT_CRITERION_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plucker",
        description="Exact graphical calculus for invariants of points on a line.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)
        return p

    p = add("straighten", cmd_straighten,
            help="expand a graph or element in the non-crossing basis")
    p.add_argument("element", help="graph text, graph JSON, element JSON, @file or -")

    p = add("evaluate", cmd_evaluate, help="evaluate at an integer configuration")
    p.add_argument("element")
    p.add_argument("--points", required=True, help="comma-separated x coordinates")

    p = add("hilbert", cmd_hilbert, help="dimension of a graded piece")
    p.add_argument("n", type=int)
    p.add_argument("degree", type=int)

    p = add("toric", cmd_toric, help="toric degeneration tools")
    p.add_argument("action", choices=("count", "greedy", "round-trip"))
    p.add_argument("--r", type=int, required=True, help="Y-tree index")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--graph", help="graph for the greedy inverse")

    p = add("normal-form", cmd_normal_form,
            help="normal form of a tuple of reduced matchings")
    p.add_argument("tuple", help='JSON {"r":..,"entries":[{"stalks":..,"bases":..}]}')

    p = add("relation", cmd_relation, help="construct or verify a relation")
    p.add_argument("action", choices=("construct", "verify"))
    p.add_argument("kind", choices=sorted(_FIXED_RELATIONS | _BUILTIN_RELATIONS))
    p.add_argument("--data", help="JSON datum, @file or -")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)

    p = add("ideal-dim", cmd_ideal_dim, help="dimension of a relation-ideal piece")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = add("orbit-span", cmd_orbit_span, help="rank of a symmetric-group orbit")
    p.add_argument("--element", help="SymElement JSON, @file or -")
    p.add_argument("--builtin", choices=("simplest8", "segre6"))

    p = add("decompose", cmd_decompose, help="isotypic decomposition of an action")
    p.add_argument("n", type=int)
    p.add_argument("space", choices=symmetry_rep.SPACES)

    p = add("report", cmd_report, help="run an acceptance block")
    p.add_argument("suite", choices=sorted(reports.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=500)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FuelExhausted as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FUEL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
