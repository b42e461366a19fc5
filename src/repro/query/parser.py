"""Parser for the XPath fragment used by the paper's workload.

The supported grammar covers every query in Figures 7 and 8:

.. code-block:: text

    query      := ('/' | '//') step ( ('/' | '//') step )*
    step       := ('@')? NAME predicate*
    predicate  := '[' condition ( 'and' condition )* ']'
    condition  := '.' '=' literal
                | relpath ( '=' literal )?
    relpath    := ('@')? NAME ( ('/' | '//') ('@')? NAME )*
    literal    := quoted string | number token

Only string-equality value conditions are supported, matching the
paper's assumption that "all values are strings and only equality
matches on the values are allowed".
"""

from __future__ import annotations

import re
from typing import Optional

from ..errors import QueryParseError
from .ast import Axis, TwigNode
from .twig import TwigPattern, TwigShape, normalize_xpath

_TOKEN_RE = re.compile(
    r"""
    (?P<dslash>//)
  | (?P<slash>/)
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<eq>=)
  | (?P<at>@)
  | (?P<dot>\.)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<name>[A-Za-z_][\w.\-]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<space>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QueryParseError(f"unexpected character {text[position]!r} at {position}")
        kind = match.lastgroup or ""
        value = match.group()
        position = match.end()
        if kind == "space":
            continue
        if kind == "string":
            value = value[1:-1]
        tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], text: str) -> None:
        self.tokens = tokens
        self.position = 0
        self.text = text
        #: The node each quoted literal landed on, in text order.
        self.slots: list[TwigNode] = []

    # -- token helpers -------------------------------------------------
    def peek(self) -> Optional[tuple[str, str]]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise QueryParseError(f"unexpected end of query: {self.text!r}")
        self.position += 1
        return token

    def expect(self, kind: str) -> str:
        token = self.next()
        if token[0] != kind:
            raise QueryParseError(
                f"expected {kind} but found {token[1]!r} in {self.text!r}"
            )
        return token[1]

    def accept(self, kind: str) -> Optional[str]:
        token = self.peek()
        if token is not None and token[0] == kind:
            self.position += 1
            return token[1]
        return None

    # -- grammar -------------------------------------------------------
    def parse_query(self) -> TwigPattern:
        axis = self._parse_axis(required=True)
        root = self._parse_step(axis)
        current = root
        while True:
            axis = self._parse_axis(required=False)
            if axis is None:
                break
            step = self._parse_step(axis)
            current.add_child(step)
            current = step
        if self.peek() is not None:
            raise QueryParseError(f"trailing tokens in query {self.text!r}")
        return TwigPattern(root, output=current)

    def _parse_axis(self, required: bool) -> Optional[Axis]:
        if self.accept("dslash") is not None:
            return Axis.DESCENDANT
        if self.accept("slash") is not None:
            return Axis.CHILD
        if required:
            raise QueryParseError(f"query must start with '/' or '//': {self.text!r}")
        return None

    def _parse_step(self, axis: Axis) -> TwigNode:
        is_attribute = self.accept("at") is not None
        name = self._parse_name()
        node = TwigNode(name, axis=axis, is_attribute=is_attribute)
        while self.accept("lbracket") is not None:
            self._parse_predicate(node)
            self.expect("rbracket")
        return node

    def _parse_name(self) -> str:
        token = self.next()
        if token[0] == "number":
            raise QueryParseError(
                f"step names cannot be numbers: {token[1]!r} in {self.text!r} "
                "(numbers are only valid as comparison literals)"
            )
        if token[0] != "name":
            raise QueryParseError(f"expected a name but found {token[1]!r} in {self.text!r}")
        return token[1]

    def _parse_predicate(self, owner: TwigNode) -> None:
        while True:
            self._parse_condition(owner)
            if self._accept_conjunction():
                continue
            break

    def _accept_conjunction(self) -> bool:
        """Consume an ``and`` keyword separating two predicate conditions.

        ``and`` is also a legal element name, so it only reads as the
        conjunction when the token after it can start a condition: ``.``,
        ``@``, a name, or ``//`` (a descendant condition).  A single
        ``/`` after ``and`` is rejected — ``[x and/y]`` is ambiguous
        between the conjunction and an element named ``and`` (write
        ``[x and y]`` or ``[x and and/y]`` respectively) — and so is a
        closing ``]``.  ``[and/x]`` therefore stays an element step
        while ``[x and y]`` conjoins.
        """
        token = self.peek()
        if token is None or token[0] != "name" or token[1] != "and":
            return False
        following = (
            self.tokens[self.position + 1]
            if self.position + 1 < len(self.tokens)
            else None
        )
        if following is None or following[0] not in ("name", "at", "dot", "dslash"):
            raise QueryParseError(
                f"'and' must be followed by a predicate condition in {self.text!r}"
            )
        self.position += 1
        return True

    def _parse_condition(self, owner: TwigNode) -> None:
        if self.accept("dot") is not None:
            self.expect("eq")
            self._parse_literal(owner)
            return
        # A relative path, optionally compared to a literal.
        node = owner
        first = True
        while True:
            if first:
                axis = Axis.CHILD
                if self.accept("dslash") is not None:
                    axis = Axis.DESCENDANT
                elif self.accept("slash") is not None:
                    axis = Axis.CHILD
            else:
                if self.accept("dslash") is not None:
                    axis = Axis.DESCENDANT
                elif self.accept("slash") is not None:
                    axis = Axis.CHILD
                else:
                    break
            is_attribute = self.accept("at") is not None
            if not is_attribute:
                token = self.peek()
                if token is None or token[0] not in ("name", "number"):
                    if first:
                        raise QueryParseError(
                            f"empty predicate path in {self.text!r}"
                        )
                    break
            name = self._parse_name()
            node = node.add_child(TwigNode(name, axis=axis, is_attribute=is_attribute))
            first = False
        if self.accept("eq") is not None:
            self._parse_literal(node)

    def _parse_literal(self, node: TwigNode) -> None:
        token = self.next()
        if token[0] not in ("string", "name", "number"):
            raise QueryParseError(f"expected a literal but found {token[1]!r} in {self.text!r}")
        node.value = token[1]
        if token[0] == "string":
            self.slots.append(node)


#: A quoted literal — the only place the grammar admits a quote, so a
#: split on it agrees with the tokenizer on every text that parses.
_LITERAL_RE = re.compile(r"""('[^']*'|"[^"]*")""")


def parse_xpath(text: str, shapes=None) -> TwigPattern:
    """Parse an XPath-subset string into a :class:`TwigPattern`.

    *Lift*: the quoted literals come out of the normalised text in
    order; the pieces between them are the shape key.  *Bind*: the
    :class:`~repro.query.twig.TwigShape` — found in ``shapes`` (a
    ``get``/``put`` cache such as a service's plan cache), else parsed
    from this text — stamps out a twig of its own nodes carrying these
    literals.  So tokenizing and parsing run once per shape; a bare
    name or number literal stays part of its shape.

    Raises
    ------
    QueryParseError
        When the text is not in the supported fragment.
    """
    normalised = normalize_xpath(text)
    parts = _LITERAL_RE.split(normalised)
    key = tuple(parts[::2])
    shape = shapes.get(key) if shapes is not None else None
    if shape is None:
        if not normalised:
            raise QueryParseError("empty query string")
        parser = _Parser(_tokenize(normalised), text)
        shape = TwigShape(parser.parse_query(), parser.slots)
        if shapes is not None:
            shapes.put(key, shape)
    return shape.bind(text, normalised, [part[1:-1] for part in parts[1::2]])
