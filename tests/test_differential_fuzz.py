"""The randomized differential fuzzing harness.

One seed drives everything: random corpora (including degenerate
chain/star shapes), random twig queries sampled from witness paths,
and random document churn (add / remove / replace / move).  Every case
is answered by a panel of independent systems that must all agree with
the naive tree-matching oracle:

* the columnar matcher (kernel passes over the flattened node table);
* every fixed strategy, plus DATAPATHS forced to its merge and its
  index-nested-loop plan, each also checked against the per-row
  reference evaluator (``tests/oracle_legacy.py``) for its ids *and*
  its full cost dict;
* the optimizer-driven ``auto`` mode through the service layer;
* a 2-shard collection and a 4-shard, 2-replica collection.

Each seed replays ``CORPORA x STAGES x QUERIES_PER_STAGE`` cases
(>= 200 by default); churn runs between stages through every system's
incremental-maintenance path.  On a mismatch the harness greedily
shrinks the corpus (dropping documents while the failure reproduces
from scratch) and fails with a self-contained repro: the seed, the
offending system and query, and the minimal corpus printed as
indented outlines.

CI runs a fixed three-seed matrix; run more locally with e.g.
``FUZZ_SEEDS=0,1,2,3,4,5 pytest tests/test_differential_fuzz.py``.
"""

from __future__ import annotations

import os
import random
from typing import Optional, Sequence

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.query.match import ColumnarMatcher, NaiveMatcher
from repro.query.parser import parse_xpath
from repro.workloads import (
    clone_document,
    random_churn_ops,
    random_corpus,
    random_document,
    random_twig_xpath,
)
from repro.xmltree import Document

from oracle_legacy import REFERENCE_RUNS, reference_execute

SEEDS = [int(token) for token in os.environ.get("FUZZ_SEEDS", "0,1,2").split(",")]

#: Corpora per seed, churn stages per corpus, queries per stage.
#: 6 x 3 x 12 = 216 (corpus, query, churn) cases per seed.
CORPORA = 6
STAGES = 3
QUERIES_PER_STAGE = 12

#: Strategies exercised on the sharded configurations (their indexes
#: are built up front; ``auto`` then prices among them per shard).
SHARDED_STRATEGIES = ("rootpaths", "datapaths", "auto")


# ----------------------------------------------------------------------
# Systems under test
# ----------------------------------------------------------------------
def _apply_op(
    target, op: str, name: str, document: Optional[Document]
) -> None:
    """Replay one churn op against any document store (engine facade,
    sharded service, or the oracle database — they share the API)."""
    if op == "add":
        target.add_document(clone_document(document))
    elif op == "remove":
        target.remove_document(name)
    elif op == "replace":
        target.replace_document(name, clone_document(document))
    else:  # move: fused remove + add under a fresh name
        target.remove_document(name)
        target.add_document(clone_document(document))


class _Single:
    """A single-engine TwigIndexDatabase, checked against the reference.

    A fixed run whose ids or cost dict differ from the reference's
    answers with both, so the harness reports it like a wrong answer.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.db = TwigIndexDatabase()

    def load(self, documents: Sequence[Document]) -> None:
        for document in documents:
            self.db.add_document(clone_document(document))

    def apply(self, op: str, name: str, document: Optional[Document]) -> None:
        _apply_op(self.db, op, name, document)

    def answers(self, xpath: str) -> dict[str, object]:
        out: dict[str, object] = {}
        for strategy, options in REFERENCE_RUNS:
            result = self.db.query(xpath, strategy=strategy, **options)
            reference = reference_execute(self.db, xpath, strategy, **options)
            kernel = (result.ids, result.cost)
            label = "-".join((strategy, *options.values()))
            out[f"{self.label}/{label}"] = (
                result.ids
                if kernel == reference
                else {"kernel": kernel, "reference": reference}
            )
        out[f"{self.label}/auto"] = self.db.service.execute(
            xpath, strategy="auto"
        ).ids
        return out

    def close(self) -> None:
        pass


class _Sharded:
    """A sharded (optionally replicated) collection behind the facade."""

    def __init__(self, label: str, num_shards: int, replicas: int) -> None:
        self.label = label
        self.service = ShardedQueryService(num_shards=num_shards, replicas=replicas)
        for strategy in SHARDED_STRATEGIES:
            if strategy != "auto":
                self.service.ensure_indexes_for(strategy)

    def load(self, documents: Sequence[Document]) -> None:
        for document in documents:
            self.service.add_document(clone_document(document))

    def apply(self, op: str, name: str, document: Optional[Document]) -> None:
        _apply_op(self.service, op, name, document)

    def answers(self, xpath: str) -> dict[str, list[int]]:
        return {
            f"{self.label}/{strategy}": self.service.execute(
                xpath, strategy=strategy
            ).ids
            for strategy in SHARDED_STRATEGIES
        }

    def close(self) -> None:
        self.service.close()


_SYSTEM_FACTORIES = {
    "single": lambda: _Single("single"),
    "shard2": lambda: _Sharded("shard2", num_shards=2, replicas=1),
    "shard4x2": lambda: _Sharded("shard4x2", num_shards=4, replicas=2),
}


def _systems() -> list:
    return [factory() for factory in _SYSTEM_FACTORIES.values()]


# ----------------------------------------------------------------------
# Shrinking and reporting
# ----------------------------------------------------------------------
def _describe(document: Document) -> str:
    """A document as an indented outline (enough to rebuild it by hand)."""
    lines = [f"document {document.name!r}:"]
    stack = [(document.root, 1)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{node.kind.value} {node.label!r}")
        for child in reversed(node.children):
            stack.append((child, depth + 1))
    return "\n".join(lines)


def _mismatch_reproduces(
    documents: Sequence[Document], xpath: str, answer_key: str
) -> bool:
    """Does rebuilding the failing system from scratch still produce
    the wrong answer for this query?"""
    oracle_db = TwigIndexDatabase()
    for document in documents:
        oracle_db.add_document(clone_document(document))
    expected = oracle_db.oracle(xpath)
    if answer_key == "columnar-matcher":
        twig = parse_xpath(xpath)
        return ColumnarMatcher(oracle_db.db).match_ids(twig) != expected
    label = answer_key.split("/", 1)[0]
    system = _SYSTEM_FACTORIES[label]()
    try:
        system.load(documents)
        answers = system.answers(xpath)
    finally:
        system.close()
    return answers[answer_key] != expected


def _shrink(
    documents: list[Document], xpath: str, answer_key: str
) -> Optional[list[Document]]:
    """Greedy document-drop shrink; None when the failure needs churn
    history and does not reproduce from a from-scratch rebuild."""
    if not _mismatch_reproduces(documents, xpath, answer_key):
        return None
    shrunk = list(documents)
    progress = True
    while progress and len(shrunk) > 1:
        progress = False
        for index in range(len(shrunk)):
            trial = shrunk[:index] + shrunk[index + 1 :]
            if _mismatch_reproduces(trial, xpath, answer_key):
                shrunk = trial
                progress = True
                break
    return shrunk


def _report(
    seed: int,
    stage: int,
    documents: list[Document],
    xpath: str,
    answer_key: str,
    expected: list[int],
    got: object,
) -> str:
    shrunk = _shrink(documents, xpath, answer_key)
    lines = [
        f"differential fuzz mismatch (seed={seed}, stage={stage})",
        f"  system:   {answer_key}",
        f"  query:    {xpath}",
        f"  expected: {expected}",
        f"  got:      {got}",
    ]
    if shrunk is None:
        lines.append(
            "  does not reproduce from scratch — requires the churn "
            "history; re-run this seed for the full schedule"
        )
        corpus = documents
    else:
        lines.append(f"  minimal corpus ({len(shrunk)} document(s)):")
        corpus = shrunk
    for document in corpus:
        lines.append(_describe(document))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_differential_fuzz(seed):
    rng = random.Random(seed)
    cases = 0
    for corpus_index in range(CORPORA):
        corpus = random_corpus(
            rng,
            documents=rng.randrange(2, 5),
            max_depth=rng.randrange(3, 7),
        )
        # `documents` tracks the live corpus so shrinking can rebuild
        # the exact document set the failing stage saw.
        documents = {document.name: document for document in corpus}
        oracle_db = TwigIndexDatabase()
        systems = _systems()
        try:
            for document in corpus:
                oracle_db.add_document(clone_document(document))
            for system in systems:
                system.load(corpus)
            naive = NaiveMatcher(oracle_db.db)
            columnar = ColumnarMatcher(oracle_db.db)
            for stage in range(STAGES):
                if stage:
                    ops = random_churn_ops(
                        rng,
                        list(documents),
                        operations=rng.randrange(1, 4),
                        name_prefix=f"churn-{corpus_index}-{stage}",
                    )
                    for op, name, document in ops:
                        _apply_op(oracle_db, op, name, document)
                        for system in systems:
                            system.apply(op, name, document)
                        if op in ("remove", "move"):
                            del documents[name]
                        if document is not None:
                            documents[document.name] = document
                live = list(documents.values())
                if not live:
                    # A pathological schedule removed everything; reseed
                    # so witness-path query sampling has a document.
                    refill = random_document(
                        rng, f"refill-{corpus_index}-{stage}"
                    )
                    _apply_op(oracle_db, "add", refill.name, refill)
                    for system in systems:
                        system.apply("add", refill.name, refill)
                    documents[refill.name] = refill
                    live = [refill]
                for _ in range(QUERIES_PER_STAGE):
                    xpath = random_twig_xpath(rng, live)
                    twig = parse_xpath(xpath)
                    expected = naive.match_ids(twig)
                    cases += 1
                    answers = {"columnar-matcher": columnar.match_ids(twig)}
                    for system in systems:
                        answers.update(system.answers(xpath))
                    for answer_key, got in answers.items():
                        if got != expected:
                            pytest.fail(
                                _report(
                                    seed, stage, live, xpath,
                                    answer_key, expected, got,
                                )
                            )
        finally:
            for system in systems:
                system.close()
    assert cases >= 200, f"only {cases} fuzz cases ran; the harness shrank"
