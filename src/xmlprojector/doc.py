"""XML document model, parsing and printing.

Documents live in memory as a tree of element/text nodes (plus
pass-through comment/PI nodes), each edge held once, in the parent's
``children``: a tree is acyclic, and what walks up reads ``parent_map``.
``parse_xml`` builds that tree inside the expat callbacks; the streaming
pruner (``pruner.prune_file``) runs in the same callbacks and prints
what it keeps through ``CALLBACK_TEXT``, building no tree.  Trees print
straight from their nodes (``serialize``, ``subtree_text``).  Both
printers format through the same helpers (``_attributes``, ``escape``,
``_pi_text``), so a tree and the callbacks it was parsed from print
alike; ``test_parse_xml_numbers_nodes_as_it_builds`` checks that byte
for byte.  This module is the one place that knows the output text
format.

Node identifiers are pre-order positions: the document node is 0 and every
node below it gets the next id in document order.  ``parse_xml`` and the
pruned copy number nodes as they create them; ``Document.__init__``
numbers a tree of nodes built beforehand (generated or hand-built).
"""

from __future__ import annotations

import xml.parsers.expat
from typing import IO, Iterable, Iterator
from xml.sax.saxutils import escape, quoteattr


class XmlSyntaxError(ValueError):
    """Raised when input XML is not well formed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


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
    for _ in feed(parser, source):
        pass
    return doc


# ---------------------------------------------------------------------------
# Serialization


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
