"""RPR004 clean: contract stated explicitly on both sides."""


class PathIndex:
    """Local stand-in for the real base; not itself checked."""

    incremental = False
    incremental_removal = False


class GoodIncremental(PathIndex):
    incremental = True
    incremental_removal = True

    def _update(self, db, doc):
        return doc

    def _remove(self, db, doc):
        return doc


class GoodFallback(PathIndex):
    incremental = False
    incremental_removal = False


class EntryBatchIndex(PathIndex):
    """Local stand-in for the entry-batch base: a base, not registered."""

    incremental = True
    incremental_removal = True

    def _update(self, db, doc):
        return doc

    def _remove(self, db, doc):
        return doc


class GoodEntryBatch(EntryBatchIndex):
    def _entry_batch(self, db, documents):
        return [], 0
