"""RPR003 clean: a batch mutator edits pages in a loop, counts locally
and charges once after the loop; its early exit comes before any edit."""


class Pages:
    def __init__(self, leaf, stats):
        self._leaf = leaf
        self.stats = stats

    def insert_many(self, entries):
        leaf = self._leaf
        added = 0
        for key, value in entries:
            leaf.keys.append(key)
            leaf.values.append(value)
            added += 1
        self.stats.btree_writes += added

    def delete_many(self, entries):
        leaf = self._leaf
        if not leaf.keys:
            return 0  # nothing edited yet, nothing owed
        removed = 0
        for key, _value in entries:
            if key in leaf.keys:
                index = leaf.keys.index(key)
                del leaf.keys[index]
                del leaf.values[index]
                removed += 1
        self.stats.btree_deletes += removed
        return removed
