"""Typed request/response models and errors of the front door.

The HTTP layer speaks JSON, but nothing past the socket handler does:
a body is validated into a :class:`QueryRequest` at the door (unknown
fields, wrong types and missing requireds are a ``400`` before any
engine work), and every answer leaves as a :class:`QueryResponse`,
whose body splices the request's values into its answer's JSON -- for
a landed answer, the JSON kept with its cache entry, so it never
outlives that entry's generation, TTL or eviction.

Rejections are *typed*: every fast-reject raises a :class:`RejectedError`
subclass carrying its HTTP status (429 for quota, 503 for a full queue
or a draining server), so the in-process client, the HTTP layer and the
benchmarks all observe the same admission decisions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

from ..errors import ReproError
from ..planner.evaluator import QueryResult
from ..service.base import LandedAnswer

__all__ = [
    "BadRequestError",
    "DrainingError",
    "FrontDoorError",
    "QueryRequest",
    "QueryResponse",
    "QueueFullError",
    "QuotaExceededError",
    "RejectedError",
    "error_body",
]


class FrontDoorError(ReproError):
    """Base of every front-door failure; carries the HTTP status."""

    status = 500
    code = "internal-error"


class BadRequestError(FrontDoorError):
    """The request body failed validation (never reaches the engine)."""

    status = 400
    code = "bad-request"


class RejectedError(FrontDoorError):
    """Admission control refused the request (a *fast* reject).

    ``retry_after`` (seconds, optional) tells a well-behaved client
    when capacity is expected back; the HTTP layer exports it as a
    ``Retry-After`` header.
    """

    status = 429
    code = "rejected"

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuotaExceededError(RejectedError):
    """The tenant's token bucket is empty."""

    status = 429
    code = "quota-exceeded"


class QueueFullError(RejectedError):
    """The bounded admission queue is at capacity — shed, don't buffer."""

    status = 503
    code = "queue-full"


class DrainingError(RejectedError):
    """The server is draining for shutdown; no new work is admitted."""

    status = 503
    code = "draining"


def error_body(error: FrontDoorError) -> dict[str, object]:
    """The JSON body every error response carries."""
    body: dict[str, object] = {
        "error": error.code,
        "status": error.status,
        "message": str(error),
    }
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        body["retry_after"] = round(float(retry_after), 3)
    return body


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequestError(message)


def _frozen(cls, *fields, **values):
    """A frozen dataclass of every field's value, past ``__init__``'s setattrs."""
    instance = object.__new__(cls)
    instance.__dict__.update(*fields, **values)
    return instance


#: ``json.dumps``'s own string encoder (``ensure_ascii``, its default), and its booleans.
_string, _FLAGS = json.encoder.encode_basestring_ascii, ("false", "true")


@dataclass(frozen=True)
class QueryRequest:
    """One validated query request.

    ``options`` are forwarded to the strategy verbatim (they enter the
    coalescing and result-cache keys, so only hashable values coalesce);
    ``documents`` scopes the query to named documents and is only
    meaningful against the sharded service.
    """

    xpath: str
    strategy: str = "auto"
    tenant: str = "default"
    use_result_cache: bool = True
    documents: Optional[tuple[str, ...]] = None
    query_id: Optional[str] = None
    options: Mapping[str, object] = field(default_factory=dict)

    #: Every field a request body may carry (anything else is a 400).
    FIELDS = (
        "xpath",
        "strategy",
        "tenant",
        "use_result_cache",
        "documents",
        "query_id",
        "options",
    )
    _FIELD_SET = frozenset(FIELDS)

    @classmethod
    def from_dict(cls, body: object) -> "QueryRequest":
        """Validate one decoded JSON body into a request.

        Typed rejection happens here, before any admission or engine
        work: unknown fields, missing ``xpath`` and wrong scalar types
        all raise :class:`BadRequestError` (HTTP 400).  One pass in field
        order; a decoded JSON object never reaches an abstract type check.
        """
        if type(body) is not dict and not isinstance(body, Mapping):
            raise BadRequestError(f"request body must be a JSON object, got {type(body).__name__}")
        if not body.keys() <= cls._FIELD_SET:
            unknown = sorted(set(body) - cls._FIELD_SET)
            raise BadRequestError(
                f"unknown request field(s) {unknown}; expected a subset of {list(cls.FIELDS)}"
            )
        _require("xpath" in body, "request is missing the required 'xpath' field")
        xpath = body["xpath"]
        _require(isinstance(xpath, str) and bool(xpath.strip()), "'xpath' must be a non-empty string")
        strategy = body.get("strategy", "auto")
        _require(isinstance(strategy, str) and bool(strategy), "'strategy' must be a non-empty string")
        tenant = body.get("tenant", "default")
        _require(isinstance(tenant, str) and bool(tenant), "'tenant' must be a non-empty string")
        use_result_cache = body.get("use_result_cache", True)
        _require(isinstance(use_result_cache, bool), "'use_result_cache' must be a boolean")
        documents = body.get("documents")
        if documents is not None:
            _require(
                isinstance(documents, Sequence)
                and not isinstance(documents, (str, bytes))
                and all(isinstance(name, str) for name in documents),
                "'documents' must be a list of document names",
            )
            documents = tuple(documents)
        query_id = body.get("query_id")
        _require(query_id is None or isinstance(query_id, str), "'query_id' must be a string")
        options = body.get("options", {})
        _require(
            (type(options) is dict or isinstance(options, Mapping))
            and all(isinstance(name, str) for name in options),
            "'options' must be an object with string keys",
        )
        return _frozen(
            cls, xpath=xpath, strategy=strategy, tenant=tenant, use_result_cache=use_result_cache,
            documents=documents, query_id=query_id, options=dict(options),
        )

    def to_dict(self) -> dict[str, object]:
        """The JSON body shape (round-trips through :meth:`from_dict`)."""
        body = asdict(self)
        body["options"] = dict(self.options)
        if self.documents is not None:
            body["documents"] = list(self.documents)
        return {name: value for name, value in body.items() if value is not None}


def _answer_json(response: "QueryResponse") -> tuple:
    """A response's six answer fields as JSON, cut where its four request
    fields go (sorted: ``cached``, ``cardinality``, *coalesced*, *elapsed_seconds*,
    ``ids``, *query_id*, ``strategy``, *tenant*, ``total_cost``, ``xpath``)."""
    head = f'{{"cached": {_FLAGS[response.cached]}, "cardinality": {len(response.ids)}, "coalesced": '
    return (
        (head + 'false, "elapsed_seconds": ', head + 'true, "elapsed_seconds": '),
        f', "ids": {json.dumps(list(response.ids))}',
        f', "strategy": {_string(response.strategy)}, "tenant": ',
        f', "total_cost": {response.total_cost!r}, "xpath": {_string(response.xpath)}}}',
    )


@dataclass(frozen=True)
class QueryResponse:
    """One served answer, JSON-shaped.

    ``coalesced`` marks an answer fanned out from another request's
    execution (single-flight); ``cached`` is the engine-side result
    cache, exactly as :class:`~repro.planner.evaluator.QueryResult`
    reports it.  The two are independent: a coalesced answer may itself
    have been a cache hit for the flight leader.
    """

    xpath: str
    strategy: str
    ids: tuple[int, ...]
    cached: bool
    coalesced: bool
    elapsed_seconds: float
    total_cost: int
    query_id: Optional[str] = None
    tenant: str = "default"
    #: A landed entry's :func:`_answer_json`; any other response makes its own.
    answer_json: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_result(
        cls, request: QueryRequest, result: QueryResult, coalesced: bool, elapsed_seconds: float
    ) -> "QueryResponse":
        return _frozen(
            cls, xpath=result.xpath, strategy=result.strategy, ids=tuple(result.ids), cached=result.cached,
            coalesced=coalesced, elapsed_seconds=elapsed_seconds, total_cost=result.total_cost,
            query_id=request.query_id, tenant=request.tenant, answer_json=None,
        )

    @classmethod
    def landed(cls, request: QueryRequest, entry: LandedAnswer, elapsed_seconds: float) -> "QueryResponse":
        """The response to a landed ``entry``, from the answer's fields and
        JSON made on the entry's first landed hit and kept in it."""
        answer = entry.encoded
        if answer is None:
            answer = entry.encoded = cls.from_result(request, entry.result, False, 0.0)
            object.__setattr__(answer, "answer_json", _answer_json(answer))
        return _frozen(
            cls, answer.__dict__, elapsed_seconds=elapsed_seconds,
            query_id=request.query_id, tenant=request.tenant,
        )

    def encode(self) -> bytes:
        """``json.dumps(self.to_dict(), sort_keys=True)``, byte for byte (for a finite elapsed time)."""
        heads, ids, strategy, tail = self.answer_json or _answer_json(self)
        named = "" if self.query_id is None else ', "query_id": ' + _string(self.query_id)
        elapsed, tenant = repr(self.elapsed_seconds), _string(self.tenant)
        return "".join((heads[self.coalesced], elapsed, ids, named, strategy, tenant, tail)).encode()

    def to_dict(self) -> dict[str, object]:
        body = {
            "xpath": self.xpath,
            "strategy": self.strategy,
            "ids": list(self.ids),
            "cardinality": len(self.ids),
            "cached": self.cached,
            "coalesced": self.coalesced,
            "elapsed_seconds": self.elapsed_seconds,
            "total_cost": self.total_cost,
            "tenant": self.tenant,
        }
        if self.query_id is not None:
            body["query_id"] = self.query_id
        return body
