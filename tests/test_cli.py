import contextlib
import io
import json
import os
import subprocess
import sys

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

import plucker
from plucker.cli import (
    EXIT_CRITERION_FAILED,
    EXIT_FUEL,
    EXIT_OK,
    EXIT_PARSE,
    ROUND_TRIP_WEIGHTINGS,
    _tree_dp_updates,
    main,
)
from plucker.invariant_ring import hilbert_dim
from plucker.toric_trees import _completion_counts, build_y_tree

# The JSON contract of the CLI: every --json payload names its command, and
# `report --json` has this shape.
COMMAND_SCHEMA = {
    "type": "object",
    "required": ["command"],
    "properties": {"command": {"type": "string"}},
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "inputs", "criteria", "pass", "cache", "seconds"],
    "properties": {
        "suite": {"type": "string"},
        "inputs": {"type": "object"},
        "pass": {"type": "boolean"},
        "seconds": {"type": "number"},
        "cache": {
            "type": "object",
            "required": ["hits", "misses", "entries", "rewrites"],
        },
        "criteria": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["criterion", "pass", "seconds"],
                "properties": {
                    "criterion": {"type": "string"},
                    "pass": {"type": "boolean"},
                    "seconds": {"type": "number"},
                },
            },
        },
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _element(*edges, coeff="1"):
    return json.dumps({"n": 4, "terms": [{"coeff": coeff, "edges": list(edges)}]})


def _simplest(n=8, coeffs=("1", "-1")):
    """The simplest binomial's SymElement JSON, with n and the coefficients replaced."""
    return json.dumps({"n": n, "degree": 2, "terms": [
        {"coeff": coeffs[0], "monomial": [[[1, 2], [3, 4], [5, 6], [7, 8]],
                                          [[1, 5], [2, 6], [3, 7], [4, 8]]]},
        {"coeff": coeffs[1], "monomial": [[[1, 2], [3, 7], [4, 8], [5, 6]],
                                          [[1, 5], [2, 6], [3, 4], [7, 8]]]}]})


# JSON nested deeper than the parser's recursion limit
_DEEP = '{"n":' + "[" * 5000


def _rainbow(r):
    """Graph text of the matching {i, 2r + 1 - i} on the 2r leaves of the r-th Y-tree."""
    return f"n={2 * r}; edges=" + ",".join(f"{i}-{2 * r + 1 - i}" for i in range(1, r + 1))


def _square_rotation(n):
    """Square-rotation datum JSON on U = 1..4: purple paths 1-5-6-2 and 3-7-8-4,
    the triangle 9-10-11 and the cycle 12..n, black {5,6}, {7,8}, ..., {n-1,n}."""
    cycle = list(range(12, n + 1))
    purple = [[1, 5], [5, 6], [6, 2], [3, 7], [7, 8], [8, 4], [9, 10], [10, 11], [9, 11]]
    purple += [[v, cycle[(i + 1) % len(cycle)]] for i, v in enumerate(cycle)]
    return json.dumps({"n": n, "U": [1, 2, 3, 4], "purple": purple,
                       "black": [[v, v + 1] for v in range(5, n, 2)]})


def _fully_crossing(m):
    """Graph text of the matching {i, i + m} on 2m points, every pair crossing."""
    return f"n={2 * m}; edges=" + ",".join(f"{i}-{i + m}" for i in range(1, m + 1))


# a loop in each kind of relation datum's edge layers
_LOOP_DATA = [
    ("square-rotation", {"n": 8, "U": [1, 2, 3, 4], "purple": [[1, 5], [5, 6], [2, 6], [3, 7],
                                                               [7, 8], [4, 8], [6, 6]],
                         "black": [[5, 7], [6, 8]]}, "purple has a loop at 6"),
    ("square-rotation", {"n": 8, "U": [1, 2, 3, 4], "purple": [[1, 5], [5, 6], [2, 6], [3, 7],
                                                               [7, 8], [4, 8]],
                         "black": [[5, 7], [6, 6]]}, "black has a loop at 6"),
    ("simple", {"n": 8, "U": [5, 6, 7, 8], "color1": [[1, 2], [3, 4], [5, 6], [7, 7]],
                "color2": [[1, 4], [2, 3], [5, 7], [6, 8]]}, "color1 has a loop at 7"),
    ("simple", {"n": 8, "U": [5, 6, 7, 8], "color1": [[1, 2], [3, 4], [5, 6], [7, 8]],
                "color2": [[1, 1], [2, 3], [5, 7], [6, 8]]}, "color2 has a loop at 1"),
    ("generalized-segre", {"UR": [1, 2], "UG": [3, 4], "UB": [5, 6], "red": [[1, 2], [3, 3]],
                           "green": [], "blue": []}, "red has a loop at 3"),
    ("generalized-segre", {"UR": [1, 2], "UG": [3, 4], "UB": [5, 6], "red": [],
                           "green": [[4, 4]], "blue": []}, "green has a loop at 4"),
    ("generalized-segre", {"UR": [1, 2], "UG": [3, 4], "UB": [5, 6], "red": [], "green": [],
                           "blue": [[5, 6], [2, 2]]}, "blue has a loop at 2"),
]

# JSON the parser refuses, and fraction strings Fraction refuses
_UNREADABLE = [
    (("straighten", '{"n":'),
     "error: element is not valid JSON: Expecting value: line 1 column 6 (char 5)"),
    (("normal-form", '{"r":4,'),
     "error: tuple is not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 8 (char 7)"),
    (("relation", "construct", "simple", "--data", "{"),
     "error: simple datum is not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (("orbit-span", "--element", '{"n":8,}'),
     "error: element is not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 8 (char 7)"),
    (("straighten", _element([1, 3], [2, 4], coeff="1/0")),
     "error: coefficient '1/0' has a zero denominator"),
    (("straighten", _element([1, 3], [2, 4], coeff="abc")),
     "error: coefficient 'abc' is not a fraction a/b"),
    (("orbit-span", "--element", _simplest(coeffs=("2/0", "-1"))),
     "error: coefficient '2/0' has a zero denominator"),
    (("orbit-span", "--element", _simplest(coeffs=("1", "1/2/3"))),
     "error: coefficient '1/2/3' is not a fraction a/b"),
    # greedy_graph's leaf scans, counted before any walk
    (("toric", "greedy", "--r", "4000", "--graph", _rainbow(4000)),
     "error: the greedy walk at r=4000 needs 32000000 leaf scans, over the limit of 10000000"),
    (("toric", "greedy", "--r", "2237", "--graph", _rainbow(2237)),
     "error: the greedy walk at r=2237 needs 10008338 leaf scans, over the limit of 10000000"),
] + [(("relation", "verify", kind, "--data", json.dumps(data)), f"error: {message}")
     for kind, data, message in _LOOP_DATA]

# inputs whose straightening is refused once it passes the work budget
_STRAIGHTENING_OVER_BUDGET = [
    (("relation", "verify", "square-rotation", "--data", _square_rotation(14)),
     "error: straightening at n=14 after 5952 rewrites needs 250026 units of work, "
     "over the budget of 250000"),
    (("straighten", _fully_crossing(11)),
     "error: straightening at n=22 after 11363 rewrites needs 250008 units of work, "
     "over the budget of 250000"),
]

# User inputs that once passed silently, failed with an assert (no message,
# or none at all under python -O) or raised deep in the library.
BAD_USER_INPUTS = [
    ("straighten", _element([1, 9], [2, 4])),
    ("straighten", _element([0, 3], [2, 4])),
    ("evaluate", _element([1, 9], [2, 4]), "--points", "1,2,3,4"),
    ("normal-form", '{"r":3,"entries":[{"stalks":[1,1],"bases":[]}]}'),
    ("normal-form", '{"r":2,"entries":[{"stalks":[1,1],"bases":[]}]}'),
    ("normal-form", '{"r":4,"entries":[{"stalks":[1,1,1,1],"bases":[]}]}'),
    ("normal-form", '{"r":3,"entries":[{"stalks":[1,-1,0],"bases":[]}]}'),
    ("normal-form", '{"r":3,"entries":[]}'),
    ("orbit-span", "--element", json.dumps(
        {"n": 8, "degree": 2,
         "terms": [{"coeff": "1", "monomial": [[[1, 2], [3, 4], [5, 6], [7, 8]]]}]})),
    ("relation", "verify", "simple", "--data", json.dumps(
        {"n": 8, "U": [1, 2, 3, 4, 99],
         "color1": [[1, 2], [3, 4], [5, 6], [7, 8]],
         "color2": [[1, 4], [2, 3], [5, 7], [6, 8]]})),
    ("relation", "verify", "square-rotation", "--data", json.dumps(
        {"n": 8, "U": [1, 2, 3, 99], "purple": [[1, 2]], "black": [[1, 2]]})),
    ("relation", "verify", "square-rotation", "--data", json.dumps(
        {"n": 8, "U": [1, 2, 3, 4, 5], "purple": [[1, 2]], "black": [[1, 2]]})),
    ("relation", "verify", "square-rotation", "--data", json.dumps(
        {"n": 8, "U": [1, 2, 3, 3], "purple": [[1, 2]], "black": [[1, 2]]})),
    # datum layers must be perfect matchings of 1..n
    ("relation", "verify", "simple", "--data", json.dumps(
        {"n": 8, "U": [5, 6, 7, 8],
         "color1": [[1, 2], [3, 4], [5, 6]],
         "color2": [[1, 4], [2, 3], [5, 7], [6, 8]]})),
    ("relation", "verify", "simple", "--data", json.dumps(
        {"n": 9, "U": [5, 6, 7, 8],
         "color1": [[1, 2], [3, 4], [5, 6], [7, 8]],
         "color2": [[1, 4], [2, 3], [5, 7], [6, 8]]})),
    ("relation", "verify", "generalized-segre", "--data", json.dumps(
        {"UR": [1, 2], "UG": [3, 4], "UB": [5, 6], "red": [[1, 2], [3, 4]],
         "green": [[1, 2], [3, 4], [5, 6]], "blue": [[1, 2], [3, 4], [5, 6]]})),
    # JSON integers only: no floats, bools or numeric strings
    ("straighten", '{"n":4,"edges":[[1.9,3],[2,4]]}'),
    ("straighten", '{"n":4.0,"edges":[[1,3],[2,4]]}'),
    ("straighten", '{"n":true,"edges":[[1,3],[2,4]]}'),
    ("straighten", _element(["1", 3], [2, 4])),
    ("orbit-span", "--element", '{"n":8.0,"degree":2,"terms":[]}'),
    ("normal-form", '{"r":3.7,"entries":[{"stalks":"111"}]}'),
    ("normal-form", '{"r":3,"entries":[{"stalks":"111"}]}'),
    ("normal-form", '{"r":3,"entries":[{"stalks":[1,1,true]}]}'),
    ("relation", "verify", "simplest", "--data",
     '{"cycleA":[1,2,6,5],"cycleB":[3,4,8,7.0]}'),
    ("relation", "verify", "simplest", "--data",
     '{"cycleA":[true,2,6,5],"cycleB":[3,4,8,7]}'),
    # --trials below 1 is bad input, not a failed criterion
    ("report", "all", "--trials", "-5"),
    ("relation", "verify", "segre", "--trials", "0", "--json"),
    ("decompose", "-2", "V"),
    ("decompose", "16", "V"),
    ("hilbert", "2", "1000000000"),
    ("hilbert", "1000000000000", "0"),  # refused before the 10**12 cycles are listed
    ("toric", "count", "--r", "4", "--degree", "-1"),
    ("toric", "round-trip", "--r", "3", "--degree", "-1"),
    # normal forms need r >= 4: at r = 3 the dealt form can miss the sum
    ("normal-form", '{"r":3,"entries":[{"stalks":[1,1,0]},{"stalks":[0,1,1]}]}'),
    # element layers must be perfect matchings of 1..n
    ("orbit-span", "--element", _simplest(n=4)),
    ("orbit-span", "--element", _simplest(n=6)),
    ("orbit-span", "--element", _simplest(n=10)),
    # exact coefficients only: fraction strings or JSON integers
    ("straighten", _element([1, 3], [2, 4], coeff=0.1)),
    ("straighten", _element([1, 3], [2, 4], coeff=True)),
    ("orbit-span", "--element", _simplest(coeffs=(0.1, -0.1))),
    ("orbit-span", "--element", _simplest(coeffs=(True, -1))),
    # JSON containers must be lists, not objects or strings
    ("straighten", '{"n":4,"terms":{}}'),
    ("straighten", '{"n":4,"edges":{}}'),
    ("orbit-span", "--element", '{"n":8,"degree":2,"terms":""}'),
    ("orbit-span", "--element", '{"n":8,"degree":2,"terms":[{"coeff":"1","monomial":{}}]}'),
    ("normal-form", '{"r":4,"entries":{}}'),
    ("relation", "construct", "simplest", "--data",
     '{"cycleA":[1,2,6,5],"cycleB":[3,4,8,7],"doubled_rest":{}}'),
    # over the work budget, refused before the work starts
    ("ideal-dim", "12", "3"),
    ("ideal-dim", "2", "1000"),
    ("orbit-span", "--element", json.dumps({"n": 12, "degree": 2, "terms": [
        {"coeff": "1", "monomial": [[[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]],
                                    [[1, 5], [2, 6], [3, 7], [4, 8], [9, 10], [11, 12]]]},
        {"coeff": "-1", "monomial": [[[1, 2], [3, 7], [4, 8], [5, 6], [9, 10], [11, 12]],
                                     [[1, 5], [2, 6], [3, 4], [7, 8], [9, 10], [11, 12]]]}]})),
    ("toric", "count", "--r", "4000", "--degree", "1"),
    ("toric", "count", "--r", "4", "--degree", "100000"),
    ("toric", "greedy", "--r", "100000000", "--graph", "n=4; edges=1-2,3-4"),
    # too deep for the parser: a RecursionError and a traceback mean exit 1
    ("straighten", _DEEP),
    ("evaluate", _DEEP, "--points", "1,2"),
    ("orbit-span", "--element", _DEEP),
    ("normal-form", _DEEP),
    ("relation", "construct", "simple", "--data", _DEEP),
    # exponent notation: Fraction would expand it into that many digits
    ("straighten", _element([1, 2], [3, 4], coeff="1e10000000")),
    ("straighten", _element([1, 2], [3, 4], coeff="1e100000000")),
    ("orbit-span", "--element", _simplest(coeffs=("1E5", "-1"))),
    # graph text and --points that Python's int() and unpacking refuse
    ("straighten", "n=4; edges=1-2-3"),
    ("straighten", "n=4; edges=a-b"),
    ("evaluate", "n=4; edges=1-2,3-4", "--points", "1,2,3,x"),
    ("evaluate", "n=4; edges=1-2,3-4", "--points", "1,,3,4"),
    ("toric", "greedy", "--r", "3", "--graph", "n=6; edges=1-2,3-4,5-x"),
    # a negative n in JSON
    ("straighten", '{"n":-4,"edges":[]}'),
    ("straighten", '{"n":-4,"terms":[]}'),
    ("orbit-span", "--element", '{"n":-4,"degree":2,"terms":[]}'),
    # a square-rotation edge off 1..n, which indexed past the valence list,
    # and a huge n, whose labels 1..n were all listed before any check
    ("relation", "verify", "square-rotation", "--data", json.dumps(
        {"n": 8, "U": [1, 2, 3, 4], "purple": [[1, 9]], "black": []})),
    ("relation", "verify", "square-rotation", "--data", json.dumps(
        {"n": 10**12, "U": [1, 2, 3, 4], "purple": [[1, 2], [3, 4]], "black": []})),
    # unreadable JSON and coefficients, loops in relation data, greedy walks
    # over the limit: each is named
    *(argv for argv, _ in _UNREADABLE),
    # a Kempe rewrite tree of up to 2^16 graphs, refused before it is built
    ("relation", "construct", "square-rotation", "--data", _square_rotation(32)),
    # straightening past the work budget, which took over 60 s, and 8.5 s and 849 MB
    *(argv for argv, _ in _STRAIGHTENING_OVER_BUDGET),
]

# Bad values that no command can build, passed to the library directly; each
# must raise ValueError, with asserts stripped too.
BAD_DIRECT_CALLS = [
    "PointConfig(((0, 0), (1, 1)))",
    "RingElement.zero(4) + RingElement.zero(6)",
    "CatWeighting(3, (1, 1, 0), ()) + CatWeighting(4, (1, 1, 1, 1), (1,))",
    "sum_weighting((CatWeighting(3, (1, 1, 0), ()), CatWeighting(4, (1, 1, 1, 1), (1,))))",
    "balance((CatWeighting(4, (1, 1, 1, 1), (1,)), CatWeighting(5, (1, 1, 1, 1, 1), (1, 1))))",
    "balance((CatWeighting(4, (0, 3, 3, 0), (0,)),))",
    "type_vector((CatWeighting(4, (1, 1, 1, 1), (1,)),))",
    "toric_segre_move((CatWeighting(3, (1, 1, 1), ()),) * 2, 2)",
    # entries on different caterpillars, r = 3 first, of type A at vertex 2
    "type_vector((CatWeighting(3, (0, 0, 0), ()),) + (CatWeighting(4, (1, 1, 1, 1), (1,)),) * 2)",
    "toric_segre_move((CatWeighting(3, (0, 0, 0), ()),) + (CatWeighting(4, (1, 1, 1, 1), (1,)),) * 2, 2)",
    # (0, 3, 0) has a middle stalk above 1
    "balance_triples([(0, 3, 0), (2, 1, 2)])",
    "CatWeighting(4, (1, 1, 1, 1), (1,)).local_triple(1)",
    "CatWeighting(4, (1, 1, 1, 1), (1,)).local_triple(4)",
    "SymElement.zero(4, 2) + SymElement.zero(6, 2)",
    "SymElement.zero(6, 2) + SymElement.zero(6, 3)",
    "TreeWeighting(build_y_tree(3), (0,) * 8)",
    "TreeWeighting(build_y_tree(3), (1,) * 8 + (-1,))",
    "toric_plucker_applicable(build_y_tree(4), 1, 1, 2, 3)",
    # trees the walk refuses: a valence of 2, an unlabelled leaf, a cycle
    "TrivalentTree(3, [(0, 1), (1, 2)], {1: 0, 2: 2})",
    "TrivalentTree(4, [(0, 1), (1, 2), (1, 3)], {1: 0, 2: 2})",
    "TrivalentTree(6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)], {1: 0, 2: 4, 3: 5})",
    # partitions of different n: 0 with asserts stripped
    "mn_character((1,), (2,))",
]

# Runs each argv of BAD_USER_INPUTS (the "argv" list of the JSON on stdin)
# through main and prints [exit code, stderr] per input; SystemExit gives its
# code, and an escaped exception its traceback with code null.  Then evaluates
# each of its "calls" and prints the name of the exception raised, or null.
_RUN_ALL_MAIN = """
import contextlib, io, json, sys, traceback
from plucker.cli import main
from plucker.invariant_ring import PointConfig, RingElement
from plucker.relations import SymElement
from plucker.symmetry_rep import mn_character
from plucker.toric_trees import (
    TreeWeighting, TrivalentTree, build_y_tree, toric_plucker_applicable)
from plucker.toric_rewriting import (
    CatWeighting, balance, balance_triples, sum_weighting, toric_segre_move, type_vector)
payload = json.load(sys.stdin)
results = []
for argv in payload["argv"]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    results.append([code, err.getvalue()])
raised = []
for call in payload["calls"]:
    try:
        eval(call)
        raised.append(None)
    except Exception as exc:
        raised.append(type(exc).__name__)
json.dump({"argv": results, "calls": raised}, sys.stdout)
"""


def test_straighten_command(capsys):
    code, out, _ = run(capsys, "straighten", "n=4; edges=1-3,2-4")
    assert code == 0
    assert "X[[1, 2], [3, 4]]" in out and "X[[1, 4], [2, 3]]" in out
    # loops print 0
    code, out, _ = run(capsys, "straighten", "n=2; edges=1-1")
    assert code == 0 and out.strip() == "0"
    # already non-crossing input echoes canonically
    code, out, _ = run(capsys, "straighten", "n=4; edges=2-1,3-4", "--json")
    payload = json.loads(out)
    assert payload["output"]["terms"] == [
        {"coeff": "-1", "edges": [[1, 2], [3, 4]]}]


def test_straighten_parse_error(capsys):
    code, _, err = run(capsys, "straighten", "garbage")
    assert code == EXIT_PARSE and "error" in err


def test_evaluate_command(capsys):
    code, out, _ = run(capsys, "evaluate", "n=2; edges=1-2", "--points", "0,1")
    assert code == 0 and out.strip() == "-1"
    code, _, err = run(capsys, "evaluate", "n=2; edges=1-2", "--points", "0,1,2")
    assert code == EXIT_PARSE


def test_hilbert_and_ideal_dim(capsys):
    code, out, _ = run(capsys, "hilbert", "8", "1", "--json")
    assert code == 0 and json.loads(out) == {
        "command": "hilbert", "n": 8, "d": 1, "dim": 14}
    jsonschema.validate(json.loads(out), COMMAND_SCHEMA)
    assert run(capsys, "hilbert", "4", "3000")[:2] == (0, "3001\n")
    assert run(capsys, "hilbert", "12", "30")[:2] == (0, "4957237676831\n")
    code, out, _ = run(capsys, "ideal-dim", "8", "2", "--json")
    assert code == 0 and json.loads(out)["dim"] == 14
    jsonschema.validate(json.loads(out), COMMAND_SCHEMA)


def test_bad_inputs_exit_with_parse_code(capsys):
    assert run(capsys, "hilbert", "7", "1")[0] == EXIT_PARSE
    assert run(capsys, "toric", "count", "--r", "2")[0] == EXIT_PARSE
    assert run(capsys, "toric", "greedy", "--r", "3")[0] == EXIT_PARSE
    assert run(capsys, "evaluate", "n=2; edges=1-2", "--points", "a,b")[0] == EXIT_PARSE
    assert run(capsys, "ideal-dim", "12", "3")[0] == EXIT_PARSE
    assert run(capsys, "straighten", "@/nonexistent/file")[0] == EXIT_PARSE
    assert run(capsys, "straighten", json.dumps(
        {"n": 4, "terms": [{"coeff": "1/0", "edges": [[1, 3], [2, 4]]}]}))[0] == EXIT_PARSE
    assert run(capsys, "orbit-span")[0] == EXIT_PARSE
    assert run(capsys, "orbit-span", "--element", "{}")[0] == EXIT_PARSE
    assert run(capsys, "toric", "greedy", "--r", "3",
               "--graph", "n=6; edges=1-2,3-4,5-5")[0] == EXIT_PARSE
    for argv in BAD_USER_INPUTS:
        code, _, err = run(capsys, *argv)
        assert code == EXIT_PARSE and err.startswith("error: ") and err.strip() != "error:"


def test_bad_inputs_exit_with_parse_code_without_asserts():
    # python -O strips assert statements, so none may guard user input;
    # one -O child runs every input and every direct call
    src = os.path.dirname(os.path.dirname(os.path.abspath(plucker.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    payload = {"argv": BAD_USER_INPUTS, "calls": BAD_DIRECT_CALLS}
    proc = subprocess.run([sys.executable, "-O", "-c", _RUN_ALL_MAIN],
                          input=json.dumps(payload), capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["calls"] == ["ValueError"] * len(BAD_DIRECT_CALLS)
    results = out["argv"]
    assert len(results) == len(BAD_USER_INPUTS)
    for argv, (code, err) in zip(BAD_USER_INPUTS, results):
        assert code == EXIT_PARSE, (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert err.startswith("error: ") and err.strip() != "error:"


def test_toric_commands(capsys):
    code, out, _ = run(capsys, "toric", "count", "--r", "3", "--degree", "1")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "toric", "round-trip", "--r", "3", "--degree", "2")
    assert code == 0 and "True" in out
    # the greedy inverse returns a canonical member of the Plucker class:
    # {14, 23} and {13, 24} carry the same weighting on the third Y-tree
    code, out, _ = run(capsys, "toric", "greedy", "--r", "3",
                       "--graph", "n=6; edges=1-4,2-3,5-6", "--json")
    assert code == 0
    assert json.loads(out)["graph"] == [[1, 3], [2, 4], [5, 6]]


def test_toric_count_on_a_deep_tree(capsys):
    # the Y-tree of r = 1100 is about 1100 levels deep; the count DP walks
    # it by a loop, where one Python frame per level hit the recursion limit
    code, out, err = run(capsys, "toric", "count", "--r", "1100", "--degree", "1")
    assert (code, err) == (0, "")
    assert int(out) == hilbert_dim(2200, 1)


def test_toric_round_trip_on_a_deep_tree(capsys):
    # degree 0 has one weighting at every r; the enumeration walks the r = 1100
    # tree by a loop, where one generator frame per level hit the recursion limit
    code, out, err = run(capsys, "toric", "round-trip", "--r", "1100", "--degree", "0")
    assert (code, out, err) == (0, "1 weightings, all round trip: True\n", "")


def test_toric_round_trip_over_the_budget_exits_2(capsys):
    # counted by the DP before enumerating: the r = 1100 tree has too many
    # weightings to visit
    code, _, err = run(capsys, "toric", "round-trip", "--r", "1100", "--degree", "1")
    assert code == 2 and "Traceback" not in err
    assert str(hilbert_dim(2200, 1)) in err and str(ROUND_TRIP_WEIGHTINGS) in err


def test_normal_form_command(capsys):
    payload = json.dumps({
        "r": 4,
        "entries": [{"stalks": [1, 1, 1, 1], "bases": [2]},
                    {"stalks": [1, 1, 1, 1], "bases": [1]}]})
    code, out, _ = run(capsys, "normal-form", payload)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["(1 | 1 1 1 | 1)", "(1 | 1 2 1 | 1)"]
    code, _, err = run(capsys, "normal-form", "{}")
    assert code == EXIT_PARSE


def test_relation_commands(capsys):
    code, out, _ = run(capsys, "relation", "verify", "segre", "--json")
    assert code == 0 and json.loads(out)["pass"]
    code, out, _ = run(capsys, "relation", "construct", "segre8", "--json")
    assert code == 0 and json.loads(out)["element"]["n"] == 8
    data = json.dumps({"cycleA": [1, 2, 6, 5], "cycleB": [3, 4, 8, 7]})
    code, out, _ = run(capsys, "relation", "verify", "simplest", "--data", data)
    assert code == 0
    simple = json.dumps({
        "n": 8, "U": [5, 6, 7, 8],
        "color1": [[1, 2], [3, 4], [5, 6], [7, 8]],
        "color2": [[1, 4], [2, 3], [5, 7], [6, 8]]})
    code, out, _ = run(capsys, "relation", "verify", "simple", "--data", simple)
    assert code == 0
    genseg = json.dumps({
        "UR": [3, 4], "UG": [1, 2], "UB": [5, 6],
        "red": [[1, 5], [2, 6], [3, 4]],
        "green": [[1, 2], [3, 5], [4, 6]],
        "blue": [[1, 3], [2, 4], [5, 6]]})
    code, out, _ = run(capsys, "relation", "verify", "generalized-segre",
                       "--data", genseg)
    assert code == 0
    sqrot = json.dumps({
        "n": 8, "U": [1, 2, 3, 4],
        "purple": [[1, 5], [5, 6], [2, 6], [3, 7], [7, 8], [4, 8]],
        "black": [[5, 7], [6, 8]]})
    code, out, _ = run(capsys, "relation", "verify", "square-rotation",
                       "--data", sqrot)
    assert code == 0
    code, _, _ = run(capsys, "relation", "verify", "simplest",
                     "--data", json.dumps({"cycleA": [1, 2, 3]}))
    assert code == EXIT_PARSE


# JSON of the wrong shape: each message names the field or container at fault
JSON_SHAPE_ERRORS = [
    (("normal-form", "[]"), "error: tuple must be a JSON object, got []"),
    (("normal-form", '{"r":4}'), "error: tuple has no 'entries' field"),
    (("normal-form", '{"r":4,"entries":[3]}'), "error: entry must be a JSON object, got 3"),
    (("normal-form", '{"r":4,"entries":[{}]}'), "error: entry has no 'stalks' field"),
    (("relation", "verify", "simplest", "--data", '{"cycleA":[1,2,6,5]}'),
     "error: simplest datum has no 'cycleB' field"),
    (("relation", "verify", "simplest", "--data", '{"cycleA":[1,2],"cycleB":[3,4,8,7]}'),
     "error: a cycle needs 4 labels, got [1, 2]"),
    (("relation", "verify", "simple", "--data", "[]"),
     "error: simple datum must be a JSON object, got []"),
    (("relation", "verify", "generalized-segre", "--data", "{}"),
     "error: generalized-segre datum has no 'UR' field"),
    (("evaluate", '{"n":2,"terms":[{"coeff":"1"}]}', "--points", "0,1"),
     "error: term has no 'edges' field"),
    (("evaluate", '{"n":2,"terms":[3]}', "--points", "0,1"), "error: term must be a JSON object, got 3"),
    (("straighten", '{"n":3}'), "error: graph has no 'edges' field"),
    (("orbit-span", "--element", "[]"), "error: element must be a JSON object, got []"),
    (("orbit-span", "--element", '{"n":8,"degree":2}'), "error: element has no 'terms' field"),
    # a number where a list belongs, and an edge of the wrong length
    (("relation", "verify", "simple", "--data", json.dumps(
        {"n": 8, "U": 3, "color1": [[1, 2], [3, 4], [5, 6], [7, 8]],
         "color2": [[1, 4], [2, 3], [5, 7], [6, 8]]})), "error: U must be a list, got 3"),
    (("relation", "verify", "generalized-segre", "--data", json.dumps(
        {"UR": 1, "UG": [1, 2], "UB": [5, 6], "red": [], "green": [], "blue": []})),
     "error: UR must be a list, got 1"),
    (("relation", "verify", "square-rotation", "--data", json.dumps(
        {"n": 8, "U": 5, "purple": [], "black": []})), "error: U must be a list, got 5"),
    (("relation", "verify", "simplest", "--data", '{"cycleA":5,"cycleB":[3,4,8,7]}'),
     "error: cycleA must be a list, got 5"),
    (("relation", "verify", "simple", "--data", '{"n":8,"U":[5,6,7,8.5]}'),
     "error: U entry must be an integer, got 8.5"),
    (("normal-form", '{"r":4,"entries":[{"stalks":3}]}'), "error: stalks must be a list, got 3"),
    (("normal-form", '{"r":4,"entries":[{"stalks":[1,1,1,1],"bases":2}]}'),
     "error: bases must be a list, got 2"),
    (("straighten", '{"n":4,"edges":[[1,2,3]]}'), "error: edge must have 2 labels, got [1, 2, 3]"),
    (("straighten", '{"n":4,"edges":[5]}'), "error: edge must be a list, got 5"),
    (("straighten", '{"n":4,"edges":[[1,2.5]]}'), "error: edge entry must be an integer, got 2.5"),
    # a whole edge list of the wrong type names its field
    (("relation", "verify", "simple", "--data",
      '{"n":8,"U":[5,6,7,8],"color1":3,"color2":[]}'), "error: color1 must be a list, got 3"),
    (("relation", "verify", "simple", "--data",
      '{"n":8,"U":[5,6,7,8],"color1":[[1,2],[3,4],[5,6],[7,8]],"color2":"x"}'),
     "error: color2 must be a list, got 'x'"),
    (("relation", "verify", "square-rotation", "--data",
      '{"n":8,"U":[1,2,3,4],"purple":[],"black":{}}'), "error: black must be a list, got {}"),
    (("relation", "verify", "square-rotation", "--data",
      '{"n":8,"U":[1,2,3,4],"purple":7,"black":[]}'), "error: purple must be a list, got 7"),
    (("relation", "verify", "simplest", "--data",
      '{"cycleA":[1,2,6,5],"cycleB":[3,4,8,7],"doubled_rest":5}'),
     "error: doubled_rest must be a list, got 5"),
    (("relation", "verify", "generalized-segre", "--data",
      '{"UR":[1,2],"UG":[3,4],"UB":[5,6],"red":1,"green":[],"blue":[]}'),
     "error: red must be a list, got 1"),
    (("relation", "verify", "generalized-segre", "--data",
      '{"UR":[1,2],"UG":[3,4],"UB":[5,6],"red":[],"green":2,"blue":[]}'),
     "error: green must be a list, got 2"),
    (("relation", "verify", "generalized-segre", "--data",
      '{"UR":[1,2],"UG":[3,4],"UB":[5,6],"red":[],"green":[],"blue":3}'),
     "error: blue must be a list, got 3"),
    (("straighten", '{"n":4,"edges":5}'), "error: edges must be a list, got 5"),
    (("orbit-span", "--element", '{"n":4,"degree":1,"terms":[{"coeff":"1","monomial":[5]}]}'),
     "error: layer must be a list, got 5"),
    # JSON too deep to parse names the argument
    (("straighten", _DEEP), "error: element is nested too deeply to read"),
    (("normal-form", _DEEP), "error: tuple is nested too deeply to read"),
    (("relation", "construct", "simple", "--data", _DEEP),
     "error: simple datum is nested too deeply to read"),
    (("straighten", _element([1, 2], [3, 4], coeff="1e10000000")),
     "error: coefficient must be a fraction string or an integer, got '1e10000000'"),
    (("straighten", '{"n":-4,"edges":[]}'), "error: n must be >= 0, got -4"),
    (("straighten", '{"n":-4,"terms":[]}'), "error: n must be >= 0, got -4"),
    (("relation", "verify", "square-rotation", "--data",
      '{"n":8,"U":[1,2,3,4],"purple":[[1,9]],"black":[]}'), "error: edge (1,9) out of range 1..8"),
    # graph text and --points name the edge or point at fault
    (("straighten", "n=4; edges=1-2-3"), "error: edge '1-2-3' is not a-b with integer labels"),
    (("straighten", "n=4; edges=a-b"), "error: edge 'a-b' is not a-b with integer labels"),
    (("toric", "greedy", "--r", "3", "--graph", "n=6; edges=1-2,3-4,5-x"),
     "error: edge '5-x' is not a-b with integer labels"),
    (("evaluate", "n=4; edges=1-2,3-4", "--points", "1,2,3,x"),
     "error: point of --points must be an integer, got 'x'"),
    (("evaluate", "n=4; edges=1-2,3-4", "--points", "1,,3,4"),
     "error: point of --points must be an integer, got ''"),
    *_UNREADABLE,
]


def test_json_shape_errors_name_the_field(capsys):
    for argv, message in JSON_SHAPE_ERRORS:
        assert run(capsys, *argv) == (EXIT_PARSE, "", message + "\n"), argv


def test_refusals_name_the_estimate_and_the_limit(capsys):
    assert run(capsys, "ideal-dim", "12", "3") == (EXIT_PARSE, "", (
        "error: Sym^3 at n=12 needs 7076520 units of work, over the budget of 250000\n"))
    assert run(capsys, "toric", "count", "--r", "4000", "--degree", "1") == (EXIT_PARSE, "", (
        "error: the tree DP at r=4000, degree 1 needs 31999997 coefficient updates, "
        "over the limit of 10000000\n"))
    assert run(capsys, "toric", "greedy", "--r", "100000000", "--graph", "n=4; edges=1-2") == (
        EXIT_PARSE, "", "error: the Y-tree at r=100000000 needs 399999998 units of work, "
        "over the budget of 250000\n")


def test_kempe_lift_refuses_its_rewrite_tree_over_the_budget(capsys):
    # p positive edges give at most 2^(p+1) graphs of n edges: p = 13 at n = 28
    for n, units in ((28, 458_752), (32, 2_097_152)):
        for action in ("construct", "verify"):
            argv = ("relation", action, "square-rotation", "--data", _square_rotation(n))
            assert run(capsys, *argv) == (EXIT_PARSE, "", (
                f"error: the Kempe lift at n={n} needs {units} units of work, "
                "over the budget of 250000\n"))


def test_straightening_over_the_budget_exits_2_with_the_count(capsys):
    import plucker.invariant_ring as ir

    # the rewrites a call makes depend on what the memo holds: count from empty
    try:
        for argv, message in _STRAIGHTENING_OVER_BUDGET:
            ir.GLOBAL_CACHE.clear()
            assert run(capsys, *argv) == (EXIT_PARSE, "", message + "\n")
    finally:
        ir.GLOBAL_CACHE.clear()


def test_tree_dp_updates_count_the_dp_inner_loop():
    # a trinode adds min(w1, w2) + 1 coefficients for each pair of child weights
    for r in range(3, 13):
        tree = build_y_tree(r)
        for d in range(9):
            table, _, trinodes = _completion_counts(tree, d)
            made = sum(min(w1, w2) + 1 for _, e1, e2 in trinodes
                       for w1 in table[e1] for w2 in table[e2])
            assert _tree_dp_updates(r, d) == made, (r, d)


def test_fixed_relations_refuse_data(capsys):
    for kind in ("segre", "segre8"):
        for action in ("construct", "verify"):
            for data in ("[]", "{}", ""):
                code, out, err = run(capsys, "relation", action, kind, "--data", data)
                assert (code, out, err) == (EXIT_PARSE, "", f"error: {kind} takes no --data\n")


def test_orbit_span_command(capsys):
    code, out, _ = run(capsys, "orbit-span", "--builtin", "simplest8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 14 and payload["spans_ideal"]


def test_orbit_span_command_at_10(capsys):
    # the doubled simplest binomial: the certificate answers with no S_10 scan
    element = json.dumps({"n": 10, "degree": 2, "terms": [
        {"coeff": "1", "monomial": [[[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]],
                                    [[1, 5], [2, 6], [3, 7], [4, 8], [9, 10]]]},
        {"coeff": "-1", "monomial": [[[1, 2], [3, 7], [4, 8], [5, 6], [9, 10]],
                                     [[1, 5], [2, 6], [3, 4], [7, 8], [9, 10]]]}]})
    code, out, _ = run(capsys, "orbit-span", "--element", element, "--json")
    assert code == 0
    assert json.loads(out) == {"command": "orbit-span", "n": 10, "degree": 2,
                               "rank": 300, "spans_ideal": True}


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "6", "V")
    assert code == 0 and out.strip() == "3+3: 1"


def test_report_json_schema_and_determinism(capsys):
    code, out, _ = run(capsys, "report", "hilbert", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["pass"]
    code, out2, _ = run(capsys, "report", "hilbert", "--json")

    def strip_timing(p):
        p = json.loads(p)
        p.pop("seconds")
        p.pop("cache")
        for c in p["criteria"]:
            c.pop("seconds")
        return p

    assert strip_timing(out) == strip_timing(out2)


def test_report_exit_code_on_failure(capsys, monkeypatch):
    import plucker.reports as reports

    monkeypatch.setitem(dict(reports.CRITERIA), "none", None)  # no-op guard
    monkeypatch.setattr(
        reports, "CRITERIA",
        (("kempe_dimensions", lambda **_: {"pass": False}),))
    monkeypatch.setattr(reports, "SUITES", {"hilbert": ("kempe_dimensions",)})
    code, _, _ = run(capsys, "report", "hilbert")
    assert code == EXIT_CRITERION_FAILED


def test_fuel_exit_code(capsys, monkeypatch):
    import plucker.invariant_ring as ir

    monkeypatch.setattr(ir, "STRAIGHTEN_FUEL", 1)
    ir.GLOBAL_CACHE.clear()
    try:
        code, _, err = run(capsys, "straighten", "n=6; edges=1-3,2-4,2-5,4-6")
        assert code == EXIT_FUEL and "internal error" in err
    finally:
        ir.GLOBAL_CACHE.clear()


# Integer arguments, small (-3..30) or huge (|x| up to 10**12).  An admitted
# round trip visits every weighting, about 0.2 ms each (r = 6, degree 3 has
# 52,844 and takes 10-14 s), so draws with more than 2,000 are left out.
_INTEGER = st.integers(-3, 30) | st.integers(-10**12, 10**12)


def _short_round_trip(argv) -> bool:
    _, action, _, r, _, d = argv
    return (action != "round-trip" or not (3 <= r <= 30 and 0 <= d <= 30)
            or not 2_000 < hilbert_dim(2 * r, d) <= ROUND_TRIP_WEIGHTINGS)


_INTEGER_ARGV = st.one_of(
    st.tuples(st.sampled_from(("ideal-dim", "hilbert")), _INTEGER, _INTEGER),
    st.tuples(st.just("decompose"), _INTEGER, st.just("I2")),
    st.tuples(st.just("toric"), st.sampled_from(("count", "round-trip")),
              st.just("--r"), _INTEGER, st.just("--degree"), _INTEGER)
    .filter(_short_round_trip),
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_INTEGER_ARGV)
def test_integer_arguments_answer_or_exit_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (EXIT_OK, EXIT_CRITERION_FAILED, EXIT_PARSE), argv
    assert "Traceback" not in err.getvalue(), argv


def test_json_too_deep_to_parse_from_a_file_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP)
    arg = f"@{deep}"
    for argv, what in ((("straighten", arg), "element"),
                       (("evaluate", arg, "--points", "1,2"), "element"),
                       (("orbit-span", "--element", arg), "element"),
                       (("normal-form", arg), "tuple"),
                       (("relation", "construct", "simple", "--data", arg), "simple datum")):
        assert run(capsys, *argv) == (EXIT_PARSE, "", f"error: {what} is nested too deeply to read\n")


# Malformed JSON for the commands that read it: documents built from the
# fields the readers know, then cut short or nested past the parser's limit.
_JSON_FIELDS = ("n", "edges", "terms", "coeff", "monomial", "degree", "r", "entries",
                "stalks", "bases", "U", "color1", "color2")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.sampled_from(("1/2", "-3", "1e9", "x", "")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_JSON_FIELDS), inner, max_size=4),
    max_leaves=12)
_JSON_COMMANDS = (("straighten", "{}"), ("evaluate", "{}", "--points", "1,2"),
                  ("orbit-span", "--element", "{}"), ("normal-form", "{}"),
                  ("relation", "construct", "simple", "--data", "{}"))


@st.composite
def _malformed_json(draw):
    text = json.dumps(draw(st.dictionaries(st.sampled_from(_JSON_FIELDS), _JSON_VALUES,
                                           max_size=5)))
    damage = draw(st.sampled_from(("none", "cut", "deep")))
    if damage == "cut":
        text = text[:draw(st.integers(1, len(text)))]
    elif damage == "deep":
        text = text[:draw(st.integers(1, len(text)))] + "[" * draw(st.integers(500, 5000))
    return text


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from(_JSON_COMMANDS), _malformed_json())
def test_malformed_json_answers_or_exits_2(command, text):
    argv = [text if a == "{}" else a for a in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CRITERION_FAILED, EXIT_PARSE), argv
    assert "Traceback" not in err.getvalue(), argv
