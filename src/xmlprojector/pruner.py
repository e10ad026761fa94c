"""Applying a projector to documents.

Two pruners with one observable contract.  The streaming pruner,
``prune_file``, handles top-down deterministic (streamable) grammars in
a single pass inside the expat callbacks, holding nothing but a stack of
frames, one per open kept element or dropped leaf, and a depth counter,
so memory follows document depth rather than document size.
``prune_tree`` handles arbitrary regular tree grammars.  On streamable
grammars it validates and copies in one top-down pass building no
witness (``grammar.walk_tree``, the walk that also types nodes for
``validate_tree``), which holds one frame per open element and clones
each kept node in pre-order as it reaches it.  Elsewhere, and wherever
that pass gives up, ``require_interpretation`` types the document with
the general algorithm (the only code that turns its result into a
witness or InvalidDocumentError), and ``prune_tree_with_origin`` erases
every node whose witnessing rule was dropped: the copy by a given
witness, and the one copy that maps nodes to their sources.  Both
copies pause the cyclic collector.  The handlers and the walk read one
``WalkTable`` built per call, whose entries and tag links are made as
the document first meets them.  On streamable grammars both pruners
produce byte-identical serializations of valid documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Callable

from .doc import (
    CALLBACK_TEXT,
    CommentNode,
    Document,
    Element,
    Node,
    PINode,
    TextNode,
    collector_paused,
    feed,
    new_parser,
)
from .grammar import (
    Grammar,
    Interpretation,
    Invalid,
    WalkEntry,
    WalkTable,
    _validate_general,
    is_streamable,
    walk_tree,
)
from .inference import Projector


class UnresolvableTagError(ValueError):
    """A tag with no candidate name: the document does not fit the grammar."""

    def __init__(self, tag: str, path: str):
        self.tag = tag
        self.path = path
        super().__init__(f"cannot resolve element {tag!r} at {path}")


class InvalidDocumentError(ValueError):
    def __init__(self, invalid: Invalid):
        self.path = invalid.path
        self.reason = invalid.reason
        super().__init__(f"invalid document at {invalid.path}: {invalid.reason}")


class NotStreamableError(ValueError):
    pass


@dataclass
class PruneStats:
    """Counters for one pruning run; every *_out is bounded by its *_in."""

    elements_in: int = 0
    elements_out: int = 0
    text_bytes_in: int = 0
    text_bytes_out: int = 0
    max_depth: int = 0

    def add(self, elements_in, elements_out, text_bytes_in, text_bytes_out, max_depth) -> None:
        """Fold in one run's counts: sums, and the deeper of the two depths."""
        self.elements_in += elements_in
        self.elements_out += elements_out
        self.text_bytes_in += text_bytes_in
        self.text_bytes_out += text_bytes_out
        self.max_depth = max(self.max_depth, max_depth)

    def line(self) -> str:
        return (
            f"elements_in={self.elements_in} elements_out={self.elements_out} "
            f"text_bytes_in={self.text_bytes_in} text_bytes_out={self.text_bytes_out} "
            f"max_depth={self.max_depth}"
        )


# ---------------------------------------------------------------------------
# Streaming pruner


def prune_file(
    src: str | bytes | IO[bytes],
    p: Projector,
    write: Callable[[str], object],
    *,
    policy: str = "strict",
    stats: PruneStats | None = None,
) -> None:
    """Prune XML text or a binary file object in one pass inside the
    parser's callbacks, passing the serialized output to ``write`` once
    per parsed chunk.  No tree is built.

    Requires a streamable grammar.  An element whose tag has no candidate
    name is handled per `policy`: 'strict' raises UnresolvableTagError,
    'drop' prunes that subtree.  Neither policy validates: 'strict' checks
    tags against the grammar, never content models, and nothing inside a
    dropped subtree is checked, so a document that violates the DTD can
    come out pruned where ``prune_tree`` raises InvalidDocumentError.
    Comments and processing instructions ride along wherever the
    surrounding element is kept.  State is one frame per open kept element
    or dropped leaf plus a counter inside other pruned regions, so memory
    follows input depth, never input size.

    Each start tag is resolved through the walk table from the innermost
    frame, whose entry says whether the element, and text under it, is
    kept; the handlers read no step plan, so no automaton is compiled.
    A kept element's frame carries its end tag, pushed as it opens, which
    its end event prints.  A dropped element whose rule has no element
    child (``WalkEntry.leaf``) stays in these handlers as a frame that
    prints nothing: its text is counted, never printed, and an element
    below it, which the grammar does not allow, is skipped unchecked as
    in any dropped subtree.  On entering any other dropped subtree the
    handlers are swapped for ones that only count, and comments and PIs
    go unhandled, until the subtree closes; text there is counted only
    when ``stats`` is given, and goes unhandled otherwise.
    """
    if policy not in ("strict", "drop"):
        raise ValueError(f"unknown policy {policy!r}")
    if not is_streamable(p.grammar):
        raise NotStreamableError("grammar is not top-down deterministic; use prune_tree")
    table = WalkTable(p.grammar, p.mask)
    child = table.child
    strict = policy == "strict"
    start_text, _, _, comment_text, pi_text = CALLBACK_TEXT
    parser = new_parser()
    out: list[str] = []
    append = out.append
    # The document node's entry, then one frame per open kept element or
    # dropped leaf.  The document node's entry is kept unless the
    # projector is empty, and its text is not: what comments, PIs and
    # text outside the root need.  ``closes`` holds each frame's closing
    # text: its end tag, or "" for a dropped leaf, which prints nothing.
    stack: list[WalkEntry] = [table.root]
    closes: list[str] = []
    depth = resume = max_depth = 0  # resume: the depth a dropped subtree hangs from
    elements_in = elements_out = text_in = text_out = 0

    def start(tag, attrs):
        nonlocal depth, resume, max_depth, elements_in, elements_out
        elements_in += 1
        depth += 1
        if depth > max_depth:
            max_depth = depth
        top = stack[-1]
        entry = top.by_tag.get(tag) or child(top, tag)
        if entry is not None:
            if entry.kept:
                elements_out += 1
                stack.append(entry)
                closes.append(f"</{tag}>")
                append(start_text(tag, attrs))
                return
            if entry.leaf:
                stack.append(entry)
                closes.append("")
                return
        elif strict and (top.kept or not top.leaf):
            # nothing below a dropped leaf is checked, as in any dropped
            # subtree; below a kept frame, every frame is kept, so the
            # closing texts are the input path's end tags
            path = "".join(["/" + close[2:-1] for close in closes])
            raise UnresolvableTagError(tag, f"{path}/{tag}")
        resume = depth - 1
        parser.StartElementHandler = skip_start
        parser.EndElementHandler = skip_end
        parser.CharacterDataHandler = dropped_text
        parser.CommentHandler = parser.ProcessingInstructionHandler = None

    def end(tag):
        nonlocal depth
        depth -= 1
        stack.pop()
        append(closes.pop())

    def text(data):
        nonlocal text_in, text_out
        size = len(data) if data.isascii() else len(data.encode("utf-8"))
        text_in += size
        if stack[-1].text_kept:
            text_out += size
            # doc.escape, inlined
            append(data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;"))

    def comment(data):
        if stack[-1].kept:
            append(comment_text(data))

    def instruction(target, data):
        if stack[-1].kept:
            append(pi_text(target, data))

    def skip_start(tag, attrs):
        nonlocal depth, max_depth, elements_in
        elements_in += 1
        depth += 1
        if depth > max_depth:
            max_depth = depth

    def skip_end(tag):
        nonlocal depth
        depth -= 1
        if depth == resume:
            keep()

    def skip_text(data):
        nonlocal text_in
        text_in += len(data) if data.isascii() else len(data.encode("utf-8"))

    dropped_text = None if stats is None else skip_text

    def keep():
        parser.StartElementHandler = start
        parser.EndElementHandler = end
        parser.CharacterDataHandler = text
        parser.CommentHandler = comment
        parser.ProcessingInstructionHandler = instruction

    keep()
    try:
        for _ in feed(parser, src):
            if out:
                write("".join(out))
                out.clear()
    finally:
        if stats is not None:
            stats.add(elements_in, elements_out, text_in, text_out, max_depth)


# ---------------------------------------------------------------------------
# In-memory pruner


def prune_tree(doc: Document, p: Projector, *, stats: PruneStats | None = None) -> Document:
    """Prune in memory; ``stats`` receives the counters ``prune_file``
    reports for the same document.  A streamable grammar is validated and
    copied in one pass that builds no witness (``walk_tree`` over the
    projector's kept mask).  Elsewhere, and wherever that pass gives up,
    the general algorithm's witness (``require_interpretation``) is
    copied by ``prune_tree_with_origin``."""
    pruned = walk_tree(doc, WalkTable(p.grammar, p.mask)) if is_streamable(p.grammar) else None
    if pruned is None:
        pruned = prune_tree_with_origin(doc, p, require_interpretation(doc, p.grammar))[0]
    if stats is not None:
        elements_in, text_in, depth = _tree_counts(doc)
        elements_out, text_out, _ = _tree_counts(pruned)
        stats.add(elements_in, elements_out, text_in, text_out, depth)
    return pruned


def require_interpretation(doc: Document, g: Grammar) -> Interpretation:
    """The general validator's witness, or InvalidDocumentError.  Not
    ``validate_tree``: its top-down pass is the one-pass copy's walk
    (``walk_tree``) over the walk table the streaming handlers read too,
    and the oracle compares both pruners against the copy by this
    witness, so a fault in the walk or the table would pass unseen."""
    result = _validate_general(doc, g)
    if isinstance(result, Invalid):
        raise InvalidDocumentError(result)
    return result


def _tree_counts(doc: Document) -> tuple[int, int, int]:
    """Elements, UTF-8 text bytes and element nesting depth of a tree."""
    elements = text_bytes = max_depth = 0
    work = [(node, 1) for node in doc.children]
    while work:
        node, depth = work.pop()
        if isinstance(node, Element):
            elements += 1
            max_depth = max(max_depth, depth)
            work.extend((child, depth + 1) for child in node.children)
        elif isinstance(node, TextNode):
            text_bytes += len(node.content.encode("utf-8"))
    return elements, text_bytes, max_depth


def prune_tree_with_origin(
    doc: Document, p: Projector, interpretation: Interpretation
) -> tuple[Document, dict[int, int]]:
    """Prune by a validation witness, erasing every node whose witnessing
    rule the projector drops, and map new node ids to old ones for
    elements and text: the only producer of origin maps, which the oracle
    reads.  It validates nothing; the caller chooses the witness
    (``require_interpretation`` or ``validate_tree``).

    Kept nodes appear in the same relative order as in the input, so the
    mapping is injective and order-preserving.  The copy runs over an
    explicit stack, so nesting depth is unbounded, gives each clone the
    next pre-order id as it links it into its parent's ``children``, and
    pauses the cyclic collector while it grows (``doc.collector_paused``).
    """
    pruned = Document()
    origin = {0: 0}  # new nid -> old nid, for elements and text
    nid = 0
    # input nodes still to copy, each with the clone of its parent; they
    # pop in pre-order, so each clone takes the next id as it is made.
    # The empty projector yields the empty document.
    work: list[tuple[Node, Element | Document]] = (
        [(child, pruned) for child in reversed(doc.children)] if p.mask else []
    )
    with collector_paused():
        while work:
            old, parent = work.pop()
            if isinstance(old, CommentNode):
                clone: Node = CommentNode(old.content)
            elif isinstance(old, PINode):
                clone = PINode(old.target, old.data)
            elif interpretation.get(old.nid) not in p.kept:
                continue
            elif isinstance(old, TextNode):
                clone = TextNode(old.content)
                origin[nid + 1] = old.nid
            else:
                clone = Element(old.tag, old.attributes)
                origin[nid + 1] = old.nid
                work.extend((child, clone) for child in reversed(old.children))
            nid += 1
            clone.nid = nid
            parent.children.append(clone)
    return pruned, origin
