"""Order-preserving byte encoding for unique composite B+-tree keys.

Index keys in this library are composites such as
``LeafValue · ReverseSchemaPath`` (ROOTPATHS, Section 3.2) or
``HeadId · LeafValue · ReverseSchemaPath`` (DATAPATHS, Section 3.3).
Components can be integers (node ids, tag ids, path ids), strings (leaf
values) or ``None`` (no leaf value).  Each component is encoded as a
self-delimiting byte string and a key is their concatenation:

* ``None`` → ``01``
* ``int``  → ``02`` + 8-byte big-endian ``value + 2**63`` (signed 64-bit range)
* ``str``  → ``03`` + UTF-8 (``surrogatepass``) with every ``00`` byte
  escaped as ``00 FF``, then the terminator ``00 01``

A stored key is a row key (:func:`row_key`): the logical components,
the terminator ``00`` — below every component tag — and the row's tail
id.  Rows that share indexed columns are told apart by row id, as in a
relational B+-tree, so no two entries of a tree share a key.

Four properties follow, and the tree relies on nothing else:

* **memcmp order is component order.**  Comparing two encoded keys as
  bytes gives the same answer as comparing their components left to
  right — ``None`` < ints < strings, ints by value, strings by code
  point, a key before every longer key it prefixes — so sorting,
  bisecting and range slicing run as one C-level ``memcmp`` per
  comparison instead of a walk over nested tuples.
* **Byte prefix is component prefix.**  No component's encoding is a
  prefix of another's, so ``key.startswith(prefix)`` is exactly "the key
  begins with these components".  Because the reverse schema path is
  the *last* logical part of every composite key (exactly why the paper
  places it last), a prefix scan implements the paper's "B+-trees are
  very efficient for prefix matches" observation directly; the rows of
  one exact logical key are the prefix :func:`exact_prefix`, in tail-id
  order, ahead of the longer keys that extend it.
* **Readers see logical keys.**  :func:`split_key` and :func:`decode_key`
  stop at the terminator, so size models and decoders never see the
  tail id (the Figure 9 model counts it once, in the IdList).
* **One flat object per key.**  A key is one ``bytes`` object rather
  than a tuple of tuples, and its layout is position-independent, so a
  leaf's keys could later be packed into, or mapped from, a file.

This module is the only code that knows the layout: indexes build keys
with :func:`encode_key` / :func:`encode_component` and :func:`row_key`,
probe with :func:`exact_prefix`, and read keys back with
:func:`decode_key` or :func:`split_key`.
"""

from __future__ import annotations

import struct
from typing import Iterable, Union

from ..errors import KeyEncodingError

KeyComponent = Union[None, int, str]
EncodedComponent = bytes
EncodedKey = bytes

_INT = struct.Struct(">BQ")
_pack_int = _INT.pack
_unpack_int = _INT.unpack_from
_pack_row_end = struct.Struct(">BBQ").pack
_INT_OFFSET = 1 << 63
#: Ends a row key's logical components; sorts below every component tag.
_END = b"\x00"
_NONE = b"\x01"
_INT_TAG = 2
_STR_TAG = b"\x03"
_STR_END = b"\x00\x01"
_ZERO = b"\x00"
_ZERO_ESCAPED = b"\x00\xff"


def encode_component(value: KeyComponent) -> EncodedComponent:
    """Encode one key component into its order-preserving bytes."""
    kind = type(value)
    if kind is int:
        try:
            return _pack_int(_INT_TAG, value + _INT_OFFSET)
        except struct.error:
            raise KeyEncodingError(
                f"integer key component {value} is outside the signed 64-bit range"
            ) from None
    if kind is str:
        data = value.encode("utf-8", "surrogatepass")
        if 0 in data:  # an int probe is a memchr; a bytes probe is not
            data = data.replace(_ZERO, _ZERO_ESCAPED)
        return _STR_TAG + data + _STR_END
    if value is None:
        return _NONE
    if isinstance(value, bool):
        # bool is an int subclass but is almost certainly a caller bug.
        raise KeyEncodingError("boolean key components are not supported")
    if isinstance(value, int):
        return encode_component(int(value))
    if isinstance(value, str):
        return encode_component(str(value))
    raise KeyEncodingError(f"cannot encode key component of type {type(value)!r}")


def encode_key(components: Iterable[KeyComponent]) -> EncodedKey:
    """Encode a sequence of components into one sortable composite key.

    Integers — tag ids, path ids and node ids, most of every probe —
    are packed inline; everything else goes through
    :func:`encode_component`.
    """
    key = b""
    try:
        for value in components:
            if type(value) is int:
                key += _pack_int(_INT_TAG, value + _INT_OFFSET)
            else:
                key += encode_component(value)
    except struct.error:
        raise KeyEncodingError(
            "integer key component is outside the signed 64-bit range"
        ) from None
    return key


def row_key(key: EncodedKey, tail_id: int) -> EncodedKey:
    """``key`` as one row's stored key: the terminator, then ``tail_id``."""
    return key + _pack_row_end(0, _INT_TAG, tail_id + _INT_OFFSET)


def exact_prefix(key: EncodedKey) -> EncodedKey:
    """The prefix of every :func:`row_key` of ``key``, and of no other key."""
    return key + _END


def split_key(key: EncodedKey) -> tuple[tuple, ...]:
    """The logical components of ``key`` as tagged tuples, in key order.

    Each component comes back as ``(0,)`` for ``None``, ``(1, int)`` or
    ``(2, str)`` — the shape the indexes' per-component space models
    (``key_size_of`` callbacks of
    :meth:`~repro.storage.btree.BPlusTree.estimated_size_bytes`) read.
    Whatever a :func:`row_key` appends after the terminator is not
    returned.
    """
    out = []
    append = out.append
    position = 0
    end = len(key)
    try:
        while position < end:
            tag = key[position]
            if tag == 2:
                append((1, _unpack_int(key, position)[1] - _INT_OFFSET))
                position += 9
            elif tag == 3:
                stop = key.find(_STR_END, position + 1)
                if stop < 0:
                    raise KeyEncodingError("unterminated string key component")
                data = key[position + 1 : stop].replace(_ZERO_ESCAPED, _ZERO)
                append((2, data.decode("utf-8", "surrogatepass")))
                position = stop + 2
            elif tag == 1:
                append((0,))
                position += 1
            elif tag == 0:  # the terminator: a row id follows
                break
            else:
                raise KeyEncodingError(f"unknown key component tag {tag}")
    except (struct.error, UnicodeDecodeError) as exc:
        raise KeyEncodingError(f"malformed key {key!r}: {exc}") from None
    return tuple(out)


def decode_key(key: EncodedKey) -> tuple[KeyComponent, ...]:
    """Invert :func:`encode_key`; a row key decodes to its logical components."""
    return tuple(part[1] if part[0] else None for part in split_key(key))


def is_prefix(prefix: EncodedKey, key: EncodedKey) -> bool:
    """True when ``key`` starts with ``prefix`` component-wise."""
    return key[: len(prefix)] == prefix
