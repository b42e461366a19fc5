"""Answer verification, outside every timed window.

The acked write log is replayed, in order, on a single never-concurrent
``TwigIndexDatabase``; its index-free ``oracle`` gives the expected ids
of a query at every *step* of the log.  A ``replace`` is two steps
(remove, then add) because the sharded tier applies it that way and a
racing read may see the gap.

A read is compared with the steps it can legally have seen: the step
reached by the writes acked before it was sent, through the step
reached by the writes sent before it returned.  A read that ran wholly
between two acks therefore has exactly one legal answer; one that
overlapped a write may show either side of it.

The oracle is too slow to evaluate every (step, query) pair of a run,
so a seeded sample of reads decides which pairs are computed: every
post-window ``check`` read plus :data:`TIMED_SAMPLE` reads of the timed
phases, which every workload's writes (its own or the probe's) run
between or beside.  Every other read whose pairs happen to be computed
is compared too -- on the catalog mixes that is nearly all of them, on
the pool the timed reads of the sampled xpaths.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence

from repro import TwigIndexDatabase
from repro.xmltree import Document, parse_string

from loadgen import Read, Recording

#: Reads of the timed phases that force their (step, query) pairs.
TIMED_SAMPLE = 96


def _legal_steps(read: Read, acked_at: Sequence[float], sent_at: Sequence[float],
                 step_after: Sequence[int]) -> range:
    surely_applied = bisect.bisect_right(acked_at, read.sent)
    maybe_applied = bisect.bisect_left(sent_at, read.done)
    return range(step_after[surely_applied], step_after[maybe_applied] + 1)


def verify(
    recording: Recording, xpaths: Sequence[str], documents: Sequence[Document], seed: int
) -> None:
    """Mark every wrong read ``wrong`` and count the compared in ``recording.compared``.

    ``documents`` are the corpus as unattached ``Document`` objects (the
    oracle database takes ownership of them).
    """
    writes = sorted(recording.writes, key=lambda write: write.sent)
    # steps[k] is the mutation that leads from step k to step k + 1.
    steps: list[tuple[str, str, object]] = []
    step_after = [0]
    for write in writes:
        if write.op in ("remove", "replace"):
            steps.append(("remove", write.name, None))
        if write.op in ("add", "replace"):
            steps.append(("add", write.name, write.xml))
        step_after.append(len(steps))
    acked_at = [write.done for write in writes]
    sent_at = [write.sent for write in writes]

    answered = [read for read in recording.reads if read.status == 200]
    timed = [read for read in answered if read.phase != "check"]
    sample = [read for read in answered if read.phase == "check"]
    if writes:
        sample += random.Random(f"{seed}/verify").sample(timed, min(TIMED_SAMPLE, len(timed)))
    legal = {id(read): _legal_steps(read, acked_at, sent_at, step_after) for read in answered}
    wanted: dict[int, set[int]] = {}
    for read in sample:
        for step in legal[id(read)]:
            wanted.setdefault(step, set()).add(read.query)

    oracle = TwigIndexDatabase.from_documents(documents)
    expected: dict[tuple[int, int], tuple] = {}
    for step in range(len(steps) + 1):
        for query in wanted.get(step, ()):
            expected[(step, query)] = tuple(oracle.oracle(xpaths[query]))
        if step < len(steps):
            op, name, xml = steps[step]
            if op == "add":
                oracle.add_document(parse_string(xml, name=name))
            else:
                oracle.remove_document(name)

    for read in answered:
        answers = [expected.get((step, read.query)) for step in legal[id(read)]]
        if None in answers:
            continue
        recording.compared += 1
        read.wrong = read.ids not in answers
