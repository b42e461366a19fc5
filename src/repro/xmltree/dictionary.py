"""Tag dictionary and designator encoding.

Section 3.1 of the paper dictionary-encodes schema components (element
tags and attribute names) "using special characters (whose lengths
depend on the dictionary size) as designators".  Figure 2 shows ``book``
encoded as ``B``, ``allauthors`` as ``U`` and so on.

Two encodings are provided:

* an integer id per tag (:meth:`TagDictionary.intern`), which the
  library uses internally for schema paths (tuples of ints sort and
  prefix-match exactly like character strings do), and
* a printable *designator string* per tag
  (:meth:`TagDictionary.designator`), which reproduces the paper's
  figures and is used when rendering schema paths for humans and for
  the SQLite backend.

The paper notes that the cost of translating a tag name to the internal
representation is negligible because the table fits in a single page;
the same holds here.

Because documents can be **removed** as well as added, the dictionary
additionally reference-counts the tags the database itself holds
(:meth:`TagDictionary.acquire` / :meth:`TagDictionary.release`, one
count per structural node).  A tag whose count drops to zero keeps its
id — ids are positional and indexes may still carry entries mentioning
it — but :meth:`TagDictionary.id_of` reports it as unknown, so query
translation short-circuits to an empty answer exactly as it would
against a database that never contained the tag.  Index-side interning
(:meth:`TagDictionary.intern`) never touches the counts: refcounts
track document content, not how many indexes mention a tag.
"""

from __future__ import annotations

import string
from typing import Iterable, Iterator


_DESIGNATOR_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits


class TagDictionary:
    """Bidirectional mapping between tag names, integer ids and designators.

    Ids are assigned in first-seen order starting at 1 (0 is reserved
    for the virtual root label).
    """

    def __init__(self) -> None:
        self._tag_to_id: dict[str, int] = {}
        self._id_to_tag: list[str] = []
        #: Live-occurrence refcounts, maintained only by acquire/release
        #: (document adds and removals); tags interned by indexes alone
        #: have no entry here and count as live.
        self._live_counts: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._id_to_tag)

    def __contains__(self, tag: str) -> bool:
        return tag in self._tag_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_tag)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern(self, tag: str) -> int:
        """Return the id for ``tag``, assigning a new one if unseen."""
        tag_id = self._tag_to_id.get(tag)
        if tag_id is None:
            self._id_to_tag.append(tag)
            tag_id = len(self._id_to_tag)
            self._tag_to_id[tag] = tag_id
        return tag_id

    def intern_all(self, tags: Iterable[str]) -> list[int]:
        """Intern every tag in ``tags`` and return their ids in order."""
        return [self.intern(t) for t in tags]

    def reserve(self, other: "TagDictionary") -> None:
        """Take ``other``'s ids, every tag with no live occurrence yet.

        What a database re-synced from ``other``'s live documents calls
        first (:meth:`~repro.shard.replica.Shard.revive`): their tags
        then keep ``other``'s ids, released tags included.
        """
        if self._id_to_tag:
            raise ValueError("can only reserve ids in an empty dictionary")
        self._id_to_tag = list(other._id_to_tag)
        self._tag_to_id = dict(other._tag_to_id)
        self._live_counts = dict.fromkeys(other._live_counts, 0)

    # ------------------------------------------------------------------
    # Live-occurrence reference counting (document adds and removals)
    # ------------------------------------------------------------------
    def acquire(self, tag: str) -> int:
        """Intern ``tag`` and count one live occurrence of it.

        Called once per structural node a document add contributes;
        the id is stable across acquire/release cycles.
        """
        tag_id = self.intern(tag)
        self._live_counts[tag] = self._live_counts.get(tag, 0) + 1
        return tag_id

    def release(self, tag: str) -> int:
        """Drop one live occurrence of ``tag`` (a document removal).

        Returns the remaining live count.  At zero the tag keeps its id
        (indexes may still mention it) but :meth:`id_of` reports it as
        unknown, matching a database that never held the tag.
        """
        count = self._live_counts.get(tag, 0)
        if count <= 0:
            raise KeyError(f"tag {tag!r} has no live occurrences to release")
        count -= 1
        self._live_counts[tag] = count
        return count

    def _is_live(self, tag: str) -> bool:
        """Refcounted tags are live above zero; untracked tags always."""
        count = self._live_counts.get(tag)
        return count is None or count > 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def id_of(self, tag: str) -> int | None:
        """The id of ``tag`` or ``None`` when no live node carries it.

        A missing tag — never seen, or acquired and since fully
        released by document removals — means no node in the database
        carries it, so a query mentioning it has an empty result;
        callers use ``None`` as that signal instead of raising.
        """
        tag_id = self._tag_to_id.get(tag)
        if tag_id is None or not self._is_live(tag):
            return None
        return tag_id

    def tag_of(self, tag_id: int) -> str:
        """The tag name for an id previously returned by :meth:`intern`."""
        return self._id_to_tag[tag_id - 1]

    # ------------------------------------------------------------------
    # Designators (paper Figure 2 style)
    # ------------------------------------------------------------------
    def designator(self, tag: str) -> str:
        """A short printable designator for ``tag``.

        The first 62 tags get a single character; later tags get two or
        more characters, mirroring the paper's remark that designator
        length depends on the dictionary size.
        """
        tag_id = self.intern(tag) - 1
        base = len(_DESIGNATOR_ALPHABET)
        chars = [_DESIGNATOR_ALPHABET[tag_id % base]]
        tag_id //= base
        while tag_id:
            chars.append(_DESIGNATOR_ALPHABET[tag_id % base])
            tag_id //= base
        return "".join(reversed(chars))

    def encode_path(self, tags: Iterable[str], separator: str = "") -> str:
        """Encode a label path as a designator string (``BUAF`` style)."""
        return separator.join(self.designator(t) for t in tags)

    def path_ids(self, tags: Iterable[str]) -> tuple[int, ...]:
        """Encode a label path as a tuple of tag ids."""
        return tuple(self.intern(t) for t in tags)

    def decode_path_ids(self, tag_ids: Iterable[int]) -> list[str]:
        """Decode a tuple of tag ids back into tag names."""
        return [self.tag_of(i) for i in tag_ids]

    def estimated_size_bytes(self) -> int:
        """Approximate space for the translation table (paper: one page).

        Only live tags are charged: removals reclaim the space a
        from-scratch dictionary over the remaining documents
        would not spend.
        """
        return sum(len(t) + 8 for t in self._id_to_tag if self._is_live(t))
