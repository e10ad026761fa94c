"""XML document model, parsing and printing.

Documents live in memory as a tree of element/text nodes (plus
pass-through comment/PI nodes), each edge held once, in the parent's
``children``: a tree is acyclic, and what walks up reads ``parent_map``.
``parse_xml`` builds that tree inside the expat callbacks; the streaming
pruner (``pruner.prune_file``) runs in the same callbacks and prints
what it keeps through ``CALLBACK_TEXT``, building no tree; only its end
tags and its ``escape`` are written out inline there, the two formats it
prints per element and per text event.  Trees print straight from their
nodes (``serialize``, ``subtree_text``).  Both printers format through
the same helpers (``_attributes``, ``escape``, ``_pi_text``), so a tree
and the callbacks it was parsed from print alike;
``test_parse_xml_numbers_nodes_as_it_builds`` checks that byte for byte.
Beside those two inlined forms, this module is the one place that knows
the output text format.

Node identifiers are pre-order positions: the document node is 0 and every
node below it gets the next id in document order.  ``parse_xml`` and the
pruned copy number nodes as they create them; ``Document.__init__``
numbers a tree of nodes built beforehand (generated or hand-built).

Trees are acyclic, so reference counting frees them and the cyclic
collector never finds anything in them; the builders (``parse_xml``, the
walk and the witness copy of the in-memory pruner, and ``dtd.parse_dtd``
for the grammar it builds) run inside ``collector_paused`` so that its
generation collections do not walk a tree while it grows.
"""

from __future__ import annotations

import gc
import re
import xml.parsers.expat
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import IO, Callable, Iterable, Iterator


class XmlSyntaxError(ValueError):
    """Raised when input XML is not well formed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off; afterwards, also when
    the block raises, turn it back on if it was on before.

    For building trees and grammars, which hold no reference cycles: the
    collections that allocating their nodes would trigger walk the growing
    value and free nothing.  Reference counting still frees everything at
    once.  ``parse_xml``, the in-memory pruner's walk and witness copy and
    ``dtd.parse_dtd`` run inside it.

    The pause defers one pass rather than all of them: the young
    generation's count goes on growing in the pause, so after a build of
    any size the next allocation that the collector tracks once the pause
    ends starts one young-generation collection, which walks everything
    built in the pause once.

    ``gc`` switches are process-global, so while a build runs no thread
    collects cycles.  Overlapping builds in several threads end with the
    collector as the first of them found it, though a later build may
    run in part with it on.  A caller that turns the collector off in
    another thread while a build runs may find it back on afterwards.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# The characters of XML 1.0 (fifth edition) names other than `:`, as the
# bodies of regular-expression classes: NCNAME_START_CHARS may begin a
# name and NCNAME_CHARS continue one, and the _ASCII classes are their
# ASCII parts.  An element name may hold `:` too; an XPath name test
# holds it only between prefix and local name.
NCNAME_START_ASCII = "A-Z_a-z"
NCNAME_ASCII = NCNAME_START_ASCII + "\\-.0-9"
NCNAME_START_CHARS = NCNAME_START_ASCII + (
    "\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d\u037f-\u1fff\u200c\u200d"
    "\u2070-\u218f\u2c00-\u2fef\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd\U00010000-\U000effff"
)
NCNAME_CHARS = NCNAME_START_CHARS + "\\-.0-9\u00b7\u0300-\u036f\u203f\u2040"


class NamePattern:
    """A regular expression over XML names: ``template(start, chars)``
    gives its source from a name-start class and a name class.

    ``re`` turns each full class, which spans up to U+EFFFF, into a
    bitmap, which takes milliseconds, so ``ascii`` is compiled from the
    ASCII classes at once and ``full`` from the full classes only on the
    first text that is not ASCII; on ASCII text the two match alike."""

    __slots__ = ("template", "flags", "ascii", "full")

    def __init__(self, template: Callable[[str, str], str], flags: int = 0):
        self.template = template
        self.flags = flags
        self.ascii = re.compile(template(NCNAME_START_ASCII, NCNAME_ASCII), flags)
        self.full: re.Pattern[str] | None = None

    def of(self, text: str) -> re.Pattern[str]:
        """The compiled pattern to run on ``text``."""
        if text.isascii():
            return self.ascii
        if self.full is None:
            self.full = re.compile(self.template(NCNAME_START_CHARS, NCNAME_CHARS), self.flags)
        return self.full

    def match(self, text: str) -> re.Match[str] | None:
        if text.isascii():  # ``of``, inlined: names are checked one by one
            return self.ascii.match(text)
        return self.of(text).match(text)


class _Frozen:
    """Base of the package's immutable ``__slots__`` values: the grammar's
    labels, content regexes and rules (``grammar``) and the query syntax
    and fragment values (``xpath``).

    Setting or deleting an attribute raises ``FrozenInstanceError``, an
    ``AttributeError``, as on a frozen dataclass; ``__init__`` writes the
    slots through their own setters, which ``__setattr__`` does not reach.
    Over the constructor's arguments (``_fields``) the defaults behave as
    a frozen dataclass's: values are equal when they are of one class and
    their fields are equal, the hash is computed from the fields, ``repr``
    prints ``Class(field=value, ...)``, and pickling passes the fields back
    to the constructor, so whatever a value caches is computed again in the
    process that loads it.  ``==`` and ``hash`` read the fields through
    ``_key``, an ``attrgetter`` each subclass gets from its ``_fields``.
    ``repr`` takes one Python frame per nested value, half the dataclass's,
    so a query nested ``xpath.MAX_QUERY_NESTING`` deep prints from as deep
    in the stack as the pipeline runs it.  Grammar values replace ``==``,
    ``hash`` and ``repr`` where theirs must not recurse or must hash once.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key = attrgetter("__class__")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple for two fields or more, the bare value for one,
        # and for none the class, which values of one class share
        cls._key = attrgetter(*cls._fields) if cls._fields else attrgetter("__class__")

    def __setattr__(self, attr, value):
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        mine, theirs = key(self), key(other)
        # identical fields are equal, as in the dataclass's tuple comparison
        return mine is theirs or mine == theirs

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        # a loop in this frame, whose f-string calls each field's repr
        # directly: no call in between counts against the recursion limit
        args = []
        for field in self._fields:
            args.append(f"{field}={getattr(self, field)!r}")
        return f"{type(self).__qualname__}({', '.join(args)})"

    def __reduce__(self):
        return (type(self), tuple([getattr(self, field) for field in self._fields]))


# ---------------------------------------------------------------------------
# Tree nodes


class Element:
    __slots__ = ("tag", "attributes", "children", "nid")

    def __init__(self, tag: str, attributes: tuple[tuple[str, str], ...] = ()):
        self.tag = tag
        self.attributes = attributes
        self.children: list[Node] = []
        self.nid = -1

    def __repr__(self):
        return f"Element({self.tag!r}, nid={self.nid})"


class TextNode:
    __slots__ = ("content", "nid")

    def __init__(self, content: str):
        self.content = content
        self.nid = -1

    def __repr__(self):
        return f"TextNode({self.content!r}, nid={self.nid})"


class CommentNode:
    __slots__ = ("content", "nid")

    def __init__(self, content: str):
        self.content = content
        self.nid = -1


class PINode:
    __slots__ = ("target", "data", "nid")

    def __init__(self, target: str, data: str):
        self.target = target
        self.data = data
        self.nid = -1


Node = Element | TextNode | CommentNode | PINode


class Document:
    """Document node: owns the root element plus any top-level comments/PIs.

    ``root`` may be None for the empty document (the result of pruning with
    an empty projector); it serializes to the empty string.
    """

    __slots__ = ("children", "nid")

    def __init__(self, children: Iterable[Node] = ()):
        self.children: list[Node] = list(children)
        self.nid = 0
        self.renumber()

    @property
    def root(self) -> Element | None:
        for child in self.children:
            if isinstance(child, Element):
                return child
        return None

    def renumber(self) -> "Document":
        for i, node in enumerate(self.iter_nodes()):
            node.nid = i
        return self

    def iter_nodes(self) -> Iterator["Document | Node"]:
        """All nodes in pre-order, starting with the document node itself."""
        yield self
        stack: list[Node] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))


def parent_map(doc: Document) -> dict[Node, Element | Document]:
    """Each node below the document, mapped to its parent: read off
    ``children``, as nodes hold no parent link."""
    parents: dict[Node, Element | Document] = {}
    for node in doc.iter_nodes():
        if isinstance(node, (Document, Element)):
            parents.update(dict.fromkeys(node.children, node))
    return parents


def node_path(doc: Document, node: Document | Node) -> str:
    """Slash path of tag names from the root of ``doc`` to ``node``, e.g. ``/doc/a/text()``."""
    parents = parent_map(doc)
    parts: list[str] = []
    while node is not doc:
        if isinstance(node, Element):
            parts.append(node.tag)
        elif isinstance(node, TextNode):
            parts.append("text()")
        elif isinstance(node, CommentNode):
            parts.append("comment()")
        else:
            parts.append(f"processing-instruction({node.target})")
        node = parents[node]
    return "/" + "/".join(reversed(parts))


# ---------------------------------------------------------------------------
# Parsing


def new_parser() -> xml.parsers.expat.XMLParserType:
    """An expat parser configured as every reader in this package uses it:
    adjacent text buffered into one call, attributes as a flat list."""
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.ordered_attributes = True
    return parser


# Bytes read from a file object per parser chunk.
_CHUNK_SIZE = 1 << 16


def feed(parser: xml.parsers.expat.XMLParserType, source: str | bytes | IO[bytes]) -> Iterator[None]:
    """Parse XML text or a binary file object, pausing after each chunk.

    The parser's handlers run during each pause's chunk; expat's errors
    surface as XmlSyntaxError with line and 1-based column.  Text goes to
    expat as ``str``, which tells it the data is UTF-8 whatever encoding
    the XML declaration names; bytes are decoded as declared.
    """
    try:
        if isinstance(source, (str, bytes)):
            parser.Parse(source, True)
            yield
            return
        while True:
            chunk = source.read(_CHUNK_SIZE)
            parser.Parse(chunk, not chunk)
            yield
            if not chunk:
                return
    except xml.parsers.expat.ExpatError as exc:
        raise XmlSyntaxError(
            xml.parsers.expat.errors.messages[exc.code], exc.lineno, exc.offset + 1
        ) from None


def parse_xml(source: str | bytes | IO[bytes]) -> Document:
    """Build the tree of XML text or a binary file object in the parser's
    callbacks; each node takes the next pre-order id as it is created.

    Text split across callbacks (at chunk or CDATA edges) merges into one
    node with the id of its first part.  Top-level comments and PIs are
    children of the document node; expat reports no text there.
    """
    doc = Document()
    stack: list[Element | Document] = [doc]  # the document, then the open elements
    nid = 0

    def start(tag, attr_list):
        nonlocal nid
        if attr_list:
            pairs = iter(attr_list)
            elem = Element(tag, tuple(zip(pairs, pairs)))
        else:
            elem = Element(tag)
        nid += 1
        elem.nid = nid
        stack[-1].children.append(elem)
        stack.append(elem)

    def end(tag):
        stack.pop()

    def text(data):
        nonlocal nid
        siblings = stack[-1].children
        if siblings and type(siblings[-1]) is TextNode:
            siblings[-1].content += data
        else:
            node = TextNode(data)
            nid += 1
            node.nid = nid
            siblings.append(node)

    def attach(node: CommentNode | PINode) -> None:
        nonlocal nid
        nid += 1
        node.nid = nid
        stack[-1].children.append(node)

    parser = new_parser()
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.CommentHandler = lambda data: attach(CommentNode(data))
    parser.ProcessingInstructionHandler = lambda target, data: attach(PINode(target, data))
    with collector_paused():
        for _ in feed(parser, source):
            pass
    return doc


# ---------------------------------------------------------------------------
# Serialization


def escape(data: str) -> str:
    """Character data with ``&``, ``<`` and ``>`` escaped, as
    ``xml.sax.saxutils.escape`` gives it (that module's import pulls in
    ``urllib`` and ``email``, which the command line does not need)."""
    return data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(data: str) -> str:
    """An attribute value escaped and quoted, as
    ``xml.sax.saxutils.quoteattr`` gives it: newline, carriage return and
    tab as character references, and the value in double quotes, or in
    single quotes if it holds a double quote but no single one, or else
    in double quotes with ``&quot;`` for each double quote."""
    data = escape(data).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"' + data.replace('"', "&quot;") + '"'


def _attributes(pairs: Iterable[tuple[str, str]]) -> str:
    return "".join(f" {name}={quoteattr(value)}" for name, value in pairs)


def _pi_text(target: str, data: str) -> str:
    return f"<?{target} {data}?>" if data else f"<?{target}?>"


def _start_tag(tag: str, attrs: list[str]) -> str:
    if not attrs:
        return f"<{tag}>"
    it = iter(attrs)
    return f"<{tag}{_attributes(zip(it, it))}>"


# The printers of expat callback arguments, for printing straight from
# the parser (see new_parser): the start, end, character data, comment
# and processing instruction handlers, in order.  They print what
# ``serialize`` prints of the nodes ``parse_xml`` builds in the same
# callbacks.
CALLBACK_TEXT = (_start_tag, lambda tag: f"</{tag}>", escape, lambda data: f"<!--{data}-->", _pi_text)


def serialize(doc: Document) -> str:
    """Canonical text of a document: no XML declaration, no DOCTYPE."""
    return _text_of(doc.children)


def subtree_text(node: Document | Node) -> str:
    """Serialization of one node and everything below it."""
    if isinstance(node, Document):
        return serialize(node)
    return _text_of([node])


def _text_of(nodes: list[Node]) -> str:
    """The nodes' text in document order, printed straight from the tree.
    An explicit stack, not recursion, so nesting depth is unbounded; it
    holds nodes still to print and the end tags of open elements."""
    out: list[str] = []
    append = out.append
    stack: list[Node | str] = list(reversed(nodes))
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is TextNode:
            append(escape(node.content))
        elif kind is Element:
            tag = node.tag
            append(f"<{tag}{_attributes(node.attributes)}>" if node.attributes else f"<{tag}>")
            if node.children:
                stack.append(f"</{tag}>")
                stack.extend(reversed(node.children))
            else:
                append(f"</{tag}>")
        elif kind is str:
            append(node)
        elif kind is CommentNode:
            append(f"<!--{node.content}-->")
        else:
            append(_pi_text(node.target, node.data))
    return "".join(out)


def string_value(node: Document | Node) -> str:
    """XPath string-value: concatenated text content beneath the node."""
    if isinstance(node, TextNode):
        return node.content
    if isinstance(node, (CommentNode, PINode)):
        return node.content if isinstance(node, CommentNode) else node.data
    parts: list[str] = []
    stack: list[Node] = list(reversed(node.children))
    while stack:
        cur = stack.pop()
        if isinstance(cur, TextNode):
            parts.append(cur.content)
        elif isinstance(cur, Element):
            stack.extend(reversed(cur.children))
    return "".join(parts)
