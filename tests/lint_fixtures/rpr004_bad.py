"""RPR004 violations: silent defaults, lying flags, dead hooks."""


class PathIndex:
    """Local stand-in for the real base; not itself checked."""

    incremental = False
    incremental_removal = False


class SilentDefault(PathIndex):
    pass  # neither flags nor hooks: the fall-back is invisible


class LyingFlag(PathIndex):
    incremental = True  # promises an incremental path...
    incremental_removal = False
    # ...but defines no _update


class DeadHook(PathIndex):
    incremental = False  # hides the override it ships
    incremental_removal = False

    def _update(self, db, doc):
        return doc


class EntryBatchIndex(PathIndex):
    """Local stand-in for the entry-batch base: a base, not registered."""

    incremental = True
    incremental_removal = True

    def _update(self, db, doc):
        return doc

    def _remove(self, db, doc):
        return doc


class NoDerive(EntryBatchIndex):
    pass  # inherits apply(derive(...)) with nothing to derive: both flags


class DeadDerive(EntryBatchIndex):
    incremental = False  # hides the derive hook it ships

    def _entry_batch(self, db, documents):
        return [], 0
