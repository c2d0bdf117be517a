"""Every declared request body refuses what its declaration refuses.

The cases are generated, not listed: the test walks every route's body
declaration in ``ApiServer`` (plus :class:`SearchQuery`, the query a
``/search`` body carries at the top level or in ``queries``), and for each
field derives hostile values from the field's annotation and ``param``
metadata — a wrong type for each kind, NaN and ±inf, an undeclared choice,
an empty list where one must be non-empty, one bad list item, and each
required field left out.  Each must come back ``{"ok": False, "error": e}``
with the field's name and the value in ``e``, on the unsharded and the
``shards=2`` server of ``test_hostile_bodies.py`` alike (over a private copy
of its knowledge base, which the positive ``/ingest`` grows), and nothing
may escape ``handle``.  A body built from the same declaration with a legal
value in every field is served, as the positive control.
``test_hostile_bodies.py`` keeps the hand-written table of exact messages as
an independent oracle.
"""

import dataclasses
import math
import typing

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec, generate_knowledge_base
from repro.server import ApiServer
from repro.server.api import SearchQuery
from tests.server.test_hostile_bodies import FAST_CONFIG_KWARGS

NAN, INF = math.nan, math.inf

#: A legal value per field name; an ``object_id`` is made by ``/ingest``.
LEGAL = {
    "session": 0, "deadline_ms": 250.0, "text": "foggy clouds",
    "weights": {"text": 1.0, "image": 1.0}, "reference_object_id": 3,
    "rank": 0, "k": 3, "concepts": ["foggy", "dusk"], "intensities": [0.5, 0.5],
    "metadata": {"source": "generated"}, "offset": 0, "limit": 2,
    "option": "result_count", "value": 5,
}


def _declared():
    """``(method, path, cls, nest)`` per route that reads a body, and the
    two places a :class:`SearchQuery` sits in a ``/search`` body: ``nest``
    wraps a query body into the route's body."""
    with ApiServer() as unapplied:
        routes = [
            (method, path, cls, None)
            for (method, path), (cls, _) in sorted(unapplied._routes.items())
            if cls is not None
        ]
    return routes + [
        ("POST", "/search", SearchQuery, None),
        ("POST", "/search", SearchQuery, lambda query: {"queries": [query]}),
    ]


ROUTES = _declared()


@pytest.fixture(scope="module", params=[None, 2], ids=["unsharded", "shards=2"])
def server(request):
    kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=120, seed=7))
    config = MQAConfig(shards=request.param, **FAST_CONFIG_KWARGS)
    with ApiServer(config, knowledge_base=kb) as applied:
        assert applied.handle("POST", "/apply")["ok"]
        assert applied.handle("POST", "/query", {"text": "foggy clouds"})["ok"]
        yield applied


def _bare(annotation):
    """The annotation without ``Optional``, as ``(origin, args)``."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is typing.Union and type(None) in args:
        (annotation,) = [arg for arg in args if arg is not type(None)]
    return typing.get_origin(annotation) or annotation, typing.get_args(annotation)


def _legal(cls, spec):
    """A legal value for the field ``spec`` of ``cls``."""
    if spec.name in LEGAL:
        return LEGAL[spec.name]
    if spec.name == "queries":
        return [_legal_body(SearchQuery)]
    return spec.default  # a declared choice


def _legal_body(cls):
    return {spec.name: _legal(cls, spec) for spec in dataclasses.fields(cls)}


def _bad_item(item_annotation):
    """A list item of the wrong type for ``item_annotation``."""
    return "x" if item_annotation in (int, float) else 5


def hostile(cls, spec, annotation):
    """``(value sent in the field, value the error must show)`` pairs."""
    kind, args = _bare(annotation)
    if kind is int:
        values = ["x", True, 1.5, INF, -INF, NAN, [1]]
    elif kind is float:
        values = ["x", NAN, INF, -INF, True, [5]]
    elif kind is str:
        values = [5, True, ["a"], {"a": 1}]
    elif kind is dict:
        values = [5, "x", [1]]
    elif kind is list:
        values = [5, "x"]
        if spec.metadata.get("bounds", {}).get("ge") == 1:
            values.append([])
    else:
        values = []  # ``Any``: whatever the option takes is checked downstream
    cases = [(value, value) for value in values]
    if spec.metadata.get("choices") is not None:
        cases.append(("no-such-choice", "no-such-choice"))
    if kind is list:
        bad = _bad_item(args[0])
        cases.append((_legal(cls, spec)[:1] + [bad], bad))
    return cases


def _cases():
    """Hostile ``(method, path, cls, nest, field, sent, shown)`` rows."""
    rows = []
    for method, path, cls, nest in ROUTES:
        hints = typing.get_type_hints(cls)
        where = f"{method} {path} {cls.__name__}{' in queries' if nest else ''}"
        for spec in dataclasses.fields(cls):
            for sent, shown in hostile(cls, spec, hints[spec.name]):
                rows.append(pytest.param(
                    method, path, cls, nest, spec.name, sent, shown,
                    id=f"{where}-{spec.name}-{sent!r}",
                ))
            required = spec.default is spec.default_factory is dataclasses.MISSING
            if required:
                rows.append(pytest.param(
                    method, path, cls, nest, spec.name, dataclasses.MISSING, None,
                    id=f"{where}-{spec.name}-missing",
                ))
    return rows


CASES = _cases()


def _send(server, method, path, cls, nest, body):
    return server.handle(method, path, nest(body) if nest else body)


@pytest.mark.parametrize("method, path, cls, nest, field, sent, shown", CASES)
def test_a_hostile_field_is_an_error_reply_naming_it(
    server, method, path, cls, nest, field, sent, shown
):
    body = _legal_body(cls)
    if sent is dataclasses.MISSING:
        del body[field]
    else:
        body[field] = sent
    reply = _send(server, method, path, cls, nest, body)
    assert set(reply) == {"ok", "error"} and reply["ok"] is False, reply
    assert field in reply["error"]
    if sent is not dataclasses.MISSING:
        assert repr(shown) in reply["error"]


def test_every_declared_field_is_swept():
    swept = {(case.values[2], case.values[4]) for case in CASES}
    declared = {
        (cls, spec.name) for _, _, cls, _ in ROUTES for spec in dataclasses.fields(cls)
    }
    assert swept == declared
    assert len(CASES) > 200, "the sweep lost its values"


@pytest.mark.parametrize(
    "method, path, cls, nest",
    [
        pytest.param(*route, id=f"{route[0]} {route[1]} {route[2].__name__}"
                     f"{' in queries' if route[3] else ''}")
        for route in ROUTES
    ],
)
def test_a_body_built_from_the_declaration_is_served(
    server, method, path, cls, nest
):
    body = _legal_body(cls)
    if path == "/remove":
        ingested = server.handle("POST", "/ingest", {"concepts": LEGAL["concepts"]})
        assert ingested["ok"], ingested
        body["object_id"] = ingested["object_id"]
    elif path == "/refine":
        assert server.handle("POST", "/select", {"rank": 0})["ok"]
    reply = _send(server, method, path, cls, nest, body)
    assert reply["ok"] is True, reply
