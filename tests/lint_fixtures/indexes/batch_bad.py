"""RPR003 violations: batch mutators that leave before charging."""


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
            if len(leaf.keys) > 128:
                return  # the appends so far are never charged
        self.stats.btree_writes += added

    def delete_many(self, entries):
        leaf = self._leaf
        removed = 0
        for key, _value in entries:
            if key in leaf.keys:
                index = leaf.keys.index(key)
                del leaf.keys[index]
                del leaf.values[index]
                removed += 1
            if not leaf.keys:
                return removed  # emptied the leaf: the deletes are lost
        self.stats.btree_deletes += removed
        return removed

    def drop_many(self, entries):
        for _key, _value in entries:
            del self._leaf.keys[0]  # a `del` edit that nothing charges
