"""A closed span tree is read one way: ``Span.from_dict`` + ``Span.paths``.

The collapsed-stack walker and the CLI's trace printer each used to walk a
``Span`` or its ``to_dict()`` export by hand.  Both are kept here, as they
were, as oracles: over drawn trees (zero durations and children that sum to
more than their parent included) the one path fold must print the same
bytes, and a lifted export must render and export as the export reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import ProfileAggregator, Span, collapse_spans


def _oracle_fields(span):
    """(name, duration_ms, children) for a Span or its dict export."""
    if isinstance(span, Span):
        return span.name, span.duration_ms, list(span.children)
    return (
        str(span["name"]),
        float(span.get("duration_ms", 0.0)),
        list(span.get("children", ())),
    )


def _oracle_collapse(roots):
    """``collapse_spans`` as it was before it became a view of the profile
    fold: its own walk, self time summed left to right."""
    totals = {}

    def walk(span, prefix):
        name, duration_ms, children = _oracle_fields(span)
        stack = f"{prefix};{name}" if prefix else name
        children_ms = 0.0
        for child in children:
            _, child_ms, _ = _oracle_fields(child)
            children_ms += child_ms
        self_ms = max(duration_ms - children_ms, 0.0)
        totals[stack] = totals.get(stack, 0.0) + self_ms
        for child in children:
            walk(child, stack)

    for root in roots:
        walk(root, "")
    return "\n".join(
        f"{stack} {round(value, 3)}" for stack, value in sorted(totals.items())
    ) + ("\n" if totals else "")


def _oracle_print(trace, indent=0):
    """The CLI's dict printer as it was, a copy of ``Span.render`` over an
    export."""
    attrs = ", ".join(f"{k}={v}" for k, v in trace.get("attributes", {}).items())
    line = (
        "  " * indent
        + f"{trace['name']} [{trace['duration_ms']:.2f} ms]"
        + (f" ({attrs})" if attrs else "")
    )
    lines = [line]
    lines.extend(_oracle_print(child, indent + 1) for child in trace.get("children", ()))
    return "\n".join(lines)


#: Seconds: zero, whole microseconds (exported milliseconds on the
#: three-decimal grid, where ``.2f`` ties live) and arbitrary floats.
durations = st.one_of(
    st.just(0.0),
    st.integers(0, 2_000_000).map(lambda us: us / 1e6),
    st.floats(0.0, 2.0, allow_nan=False),
)
attributes = st.dictionaries(
    st.sampled_from(["k", "hops", "cache", "shard", "ok"]),
    st.one_of(st.integers(-5, 500), st.booleans(), st.sampled_from(["hit", "miss"]),
              st.floats(-1e3, 1e3, allow_nan=False)),
    max_size=3,
)
# Few names, so sibling and cross-tree paths repeat and their self times sum.
trees = st.recursive(
    st.builds(Span, st.sampled_from(["query", "encode", "index-search"]),
              attributes, st.just([]), durations),
    lambda inner: st.builds(Span, st.sampled_from(["query", "retrieval", "fusion"]),
                            attributes, st.lists(inner, max_size=3), durations),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(trees, max_size=4))
def test_collapse_spans_prints_the_walkers_bytes(roots):
    exports = [root.to_dict() for root in roots]
    assert collapse_spans(roots) == _oracle_collapse(roots)
    assert collapse_spans(exports) == _oracle_collapse(exports)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_a_lifted_export_renders_and_exports_as_it_reads(tree):
    export = tree.to_dict()
    lifted = Span.from_dict(export)
    assert lifted.render(indent=1) == _oracle_print(export, indent=1)
    assert lifted.to_dict() == export
    assert [path for path, _ in lifted.paths()] == [path for path, _ in tree.paths()]


def test_paths_are_depth_first_from_the_root():
    tree = Span("query", children=[
        Span("retrieval", children=[Span("encode"), Span("index-search")]),
        Span("generation"),
    ])
    assert [(path, span.name) for path, span in tree.paths()] == [
        ("query", "query"),
        ("query;retrieval", "retrieval"),
        ("query;retrieval;encode", "encode"),
        ("query;retrieval;index-search", "index-search"),
        ("query;generation", "generation"),
    ]


def test_a_lifted_span_keeps_its_exported_milliseconds():
    # 125.005 ms does not survive ms -> s -> ms; the lifted span must still
    # print it as the export does.
    lifted = Span.from_dict({"name": "query", "duration_ms": 125.005})
    assert lifted.duration_ms == 125.005
    assert lifted.render() == "query [125.00 ms]"


@pytest.mark.parametrize("tree", [
    5,
    [1, 2],
    {},
    {"name": 3},
    {"name": "query", "children": 5},
    {"name": "query", "children": [{"duration_ms": 1.0}]},
    {"name": "query", "duration_ms": "x"},
    {"name": "query", "duration_ms": True},
    {"name": "query", "duration_ms": -1.0},
    {"name": "query", "duration_ms": float("nan")},
    {"name": "query", "duration_ms": float("inf")},
    {"name": "query", "attributes": [1]},
])
def test_anything_else_is_refused(tree):
    with pytest.raises(ValueError):
        Span.from_dict(tree)
    with pytest.raises(ValueError):
        ProfileAggregator().add_trace(tree)
