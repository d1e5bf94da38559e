"""Round trips of the input formats under Hypothesis: graph text, graph JSON,
ring-element and SymElement JSON, and the caterpillar tuple of ``normal-form``."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from plucker.cli import _parse_cat_tuple, main
from plucker.graph_core import canonicalize, graph_to_json, parse_graph, parse_graph_json
from plucker.invariant_ring import RingElement
from plucker.relations import SymElement
from plucker.toric_rewriting import CatWeighting, enumerate_reduced_matchings, normal_form

round_trips = settings(derandomize=True, database=None, max_examples=60, deadline=None)

_COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def _graphs(draw):
    """(n, edges) with labels in 1..n, loops and repeated edges included."""
    n = draw(st.integers(0, 12))
    if not n:
        return 0, []
    label = st.integers(1, n)
    return n, draw(st.lists(st.tuples(label, label), max_size=10))


@st.composite
def _matchings(draw, n):
    """A perfect matching of 1..n as a list of edges, each edge in either order."""
    order = draw(st.permutations(range(1, n + 1)))
    return [(order[i], order[i + 1]) if draw(st.booleans()) else (order[i + 1], order[i])
            for i in range(0, n, 2)]


@st.composite
def _ring_elements(draw):
    n = draw(st.integers(2, 10))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    items = []
    for edges, c in draw(st.lists(st.tuples(st.lists(pair, max_size=6), _COEFFS), max_size=5)):
        cf = canonicalize(edges)
        items.append((cf.graph, c * cf.sign))
    return RingElement.from_terms(n, items)


@st.composite
def _sym_elements(draw):
    n = 2 * draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(st.lists(_matchings(n), min_size=k, max_size=k), _COEFFS),
                          max_size=4))
    return SymElement.from_terms(n, k, terms)


@st.composite
def _cat_weightings(draw):
    """Any tuple of caterpillar weightings on one r, as ``CatWeighting`` admits them."""
    r = draw(st.integers(3, 7))
    weights = st.integers(0, 9)
    entry = st.builds(CatWeighting, st.just(r), st.tuples(*[weights] * r),
                      st.tuples(*[weights] * (r - 3)))
    return tuple(draw(st.lists(entry, min_size=1, max_size=4)))


@st.composite
def _cat_tuples(draw):
    """Unbreakable reduced matchings on one caterpillar, the inputs of ``normal_form``."""
    r = draw(st.integers(4, 6))
    table = [m for m in enumerate_reduced_matchings(r) if m.is_unbreakable()]
    return tuple(draw(st.lists(st.sampled_from(table), min_size=1, max_size=4)))


def _tuple_json(tup) -> str:
    return json.dumps({"r": tup[0].r, "entries": [{"stalks": list(e.stalks),
                                                   "bases": list(e.bases)} for e in tup]})


@round_trips
@given(_graphs())
def test_graph_text_round_trips(graph):
    n, edges = graph
    text = f"n={n}; edges=" + ",".join(f"{a}-{b}" for a, b in edges)
    assert parse_graph(text) == (n, edges)


@round_trips
@given(_graphs())
def test_graph_json_round_trips(graph):
    n, edges = graph
    assert parse_graph_json(graph_to_json(n, edges)) == (n, edges)


@round_trips
@given(_ring_elements())
def test_ring_element_json_round_trips(e):
    text = e.to_json()
    back = RingElement.from_json(text)
    assert back == e and back.to_json() == text


@round_trips
@given(_sym_elements())
def test_sym_element_json_round_trips(e):
    text = e.to_json()
    back = SymElement.from_json(text)
    assert back == e and back.to_json() == text


@round_trips
@given(_cat_weightings())
def test_cat_tuple_round_trips(tup):
    assert _parse_cat_tuple(_tuple_json(tup)) == tup


@round_trips
@given(_cat_tuples())
def test_normal_form_entries_read_back_as_the_normal_form(tup):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["normal-form", _tuple_json(tup), "--json"]) == 0
    payload = json.loads(out.getvalue())
    back = _parse_cat_tuple(json.dumps({"r": tup[0].r, "entries": payload["entries"]}))
    assert back == normal_form(tup)
