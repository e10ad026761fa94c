"""Applying a projector to documents.

Two pruners with one observable contract.  The streaming pruner,
``prune_file``, handles top-down deterministic (streamable) grammars in
a single pass inside the expat callbacks, holding nothing but a stack of
kept frames and a depth counter, so memory follows document depth rather
than document size.  ``prune_tree`` handles arbitrary regular tree
grammars.  On streamable grammars it validates and copies in one
top-down pass building no witness (``grammar.walk_tree``, the walk that
also types nodes for ``validate_tree``); elsewhere, and wherever that
pass gives up, it validates with the general algorithm and then erases
every node whose witnessing rule was dropped.  The handlers and the
walk read one ``WalkTable`` built per call, whose entries and tag links
are made as the document first meets them.  On streamable grammars both
pruners produce byte-identical serializations of valid documents.
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
    feed,
    new_parser,
)
from .grammar import (
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
    plus a counter inside pruned regions, so memory follows input depth,
    never input size.

    Each start tag is resolved through the walk table from the innermost
    kept frame, whose entry says whether the element, and text under it,
    is kept; the handlers read no step plan, so no automaton is
    compiled.  On entering a dropped subtree the handlers are swapped for
    ones that only count, and comments and PIs go unhandled, until the
    subtree closes; text there is counted only when ``stats`` is given,
    and goes unhandled otherwise.
    """
    if policy not in ("strict", "drop"):
        raise ValueError(f"unknown policy {policy!r}")
    if not is_streamable(p.grammar):
        raise NotStreamableError("grammar is not top-down deterministic; use prune_tree")
    table = WalkTable(p.grammar, p.mask)
    child = table.child
    strict = policy == "strict"
    start_text, end_text, escape_text, comment_text, pi_text = CALLBACK_TEXT
    parser = new_parser()
    out: list[str] = []
    append = out.append
    # The document node's entry, then the kept frames only.  The document
    # node's entry is kept unless the projector is empty, and its text is
    # not: what comments, PIs and text outside the root need.
    stack: list[WalkEntry] = [table.root]
    tags: list[str] = []  # the kept frames' tags: the input path, for diagnostics
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
        if entry is not None and entry.kept:
            elements_out += 1
            stack.append(entry)
            tags.append(tag)
            append(start_text(tag, attrs))
            return
        if entry is None and strict:
            raise UnresolvableTagError(tag, "/" + "/".join(tags + [tag]))
        resume = depth - 1
        parser.StartElementHandler = skip_start
        parser.EndElementHandler = skip_end
        parser.CharacterDataHandler = dropped_text
        parser.CommentHandler = parser.ProcessingInstructionHandler = None

    def end(tag):
        nonlocal depth
        depth -= 1
        stack.pop()
        tags.pop()
        append(end_text(tag))

    def text(data):
        nonlocal text_in, text_out
        size = len(data) if data.isascii() else len(data.encode("utf-8"))
        text_in += size
        if stack[-1].text_kept:
            text_out += size
            append(escape_text(data))

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


def prune_tree(
    doc: Document,
    p: Projector,
    interpretation: Interpretation | None = None,
    *,
    stats: PruneStats | None = None,
) -> Document:
    """Prune in memory; ``stats`` receives the counters ``prune_file``
    reports for the same document."""
    pruned, _ = prune_tree_with_origin(doc, p, interpretation=interpretation)
    if stats is not None:
        elements_in, text_in, depth = _tree_counts(doc)
        elements_out, text_out, _ = _tree_counts(pruned)
        stats.add(elements_in, elements_out, text_in, text_out, depth)
    return pruned


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
    doc: Document, p: Projector, interpretation: Interpretation | None = None
) -> tuple[Document, dict[int, int]]:
    """Prune via a validation witness; also map new node ids to old ones.

    Kept nodes appear in the same relative order as in the input, so the
    mapping is injective and order-preserving.  Without an
    interpretation, a streamable grammar is validated and copied in one
    top-down pass that builds no witness (``walk_tree`` over the
    projector's kept mask); a grammar that is not streamable, an empty
    document, a rule that is not text-neutral or a rejection takes the
    other path: the general validation algorithm, which writes the
    InvalidDocumentError diagnostics, then the copy by witness, which
    reads the projector's decoded ``kept`` set.
    ``validate_tree``'s top-down pass is the same walk, so it would give
    up on exactly these documents and is not run again.  A precomputed
    interpretation may be supplied to amortize validation across many
    projectors of the same grammar; it is copied by witness.  Both copies
    run over an explicit stack, so nesting depth is unbounded, and give
    each clone the next pre-order id as they link it into its parent's
    ``children``.
    """
    if interpretation is None:
        if is_streamable(p.grammar):
            copied = walk_tree(doc, WalkTable(p.grammar, p.mask))
            if copied is not None:
                return copied
        result = _validate_general(doc, p.grammar)
        if isinstance(result, Invalid):
            raise InvalidDocumentError(result)
        interpretation = result

    pruned = Document()
    origin = {0: 0}  # new nid -> old nid, for elements and text
    nid = 0
    # input nodes still to copy, each with the clone of its parent; they
    # pop in pre-order, so each clone takes the next id as it is made.
    # The empty projector yields the empty document.
    work: list[tuple[Node, Element | Document]] = (
        [(child, pruned) for child in reversed(doc.children)] if p.mask else []
    )
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
