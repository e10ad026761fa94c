"""Applying a projector to documents.

Two pruners with one observable contract.  ``prune_stream`` handles
top-down deterministic (streamable) grammars in a single pass over SAX
events, holding nothing but a stack of (rule, keep?) frames, so memory
follows document depth rather than document size.  ``prune_tree`` handles
arbitrary regular tree grammars by validating first and then erasing every
node whose witnessing rule was dropped.  On streamable grammars both
produce byte-identical serializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .doc import (
    CommentNode,
    Document,
    Element,
    EndElement,
    Node,
    PINode,
    SaxEvent,
    StartElement,
    Text,
    TextNode,
)
from .grammar import Grammar, Interpretation, Invalid, Rule, is_streamable, validate_tree
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

    def line(self) -> str:
        return (
            f"elements_in={self.elements_in} elements_out={self.elements_out} "
            f"text_bytes_in={self.text_bytes_in} text_bytes_out={self.text_bytes_out} "
            f"max_depth={self.max_depth}"
        )


# ---------------------------------------------------------------------------
# Streaming pruner


# Dispatch entry per resolvable child rule: [kept, text under it emitted,
# exact tag table, wildcard fallback].  Mutable lists so recursive grammars
# can reference an entry while it is still being filled in; lookups are two
# dict hits per element on the hot path.
_Entry = list


def _build_dispatch(p: Projector) -> tuple[dict[str, _Entry], _Entry | None]:
    g = p.grammar
    entries: dict[Rule, _Entry] = {}

    def entry_for(rule: Rule) -> _Entry:
        entry = entries.get(rule)
        if entry is None:
            names = g.child_names(rule)
            text_ok = any(t in p.kept for n in names for t in g.text_rules(n))
            entry = [rule in p.kept, text_ok, {}, None]
            entries[rule] = entry
            exact, wild = _dispatch_names(g, names)
            for tag, child in exact.items():
                entry[2][tag] = entry_for(child)
            if wild is not None:
                entry[3] = entry_for(wild)
        return entry

    exact, wild = _dispatch_names(g, g.start)
    root_exact = {tag: entry_for(rule) for tag, rule in exact.items()}
    return root_exact, (entry_for(wild) if wild is not None else None)


def _dispatch_names(g: Grammar, names: Iterable[str]) -> tuple[dict[str, Rule], Rule | None]:
    exact: dict[str, Rule] = {}
    wild: Rule | None = None
    for name in names:
        for rule in g.element_rules(name):
            if rule.label.is_wildcard:
                wild = rule
            else:
                exact[rule.label.tag] = rule
    return exact, wild


def prune_stream(
    events: Iterable[SaxEvent],
    p: Projector,
    *,
    policy: str = "strict",
    stats: PruneStats | None = None,
) -> Iterator[SaxEvent]:
    """One-pass event filter; yields the events of the pruned document.

    Requires a streamable grammar.  An element whose tag has no candidate
    name is handled per `policy`: 'strict' raises UnresolvableTagError,
    'drop' prunes that subtree.  Comments and processing instructions ride
    along wherever the surrounding element is kept.  State is one frame
    per open kept element plus a counter inside pruned regions, so memory
    follows input depth, never input size.
    """
    if policy not in ("strict", "drop"):
        raise ValueError(f"unknown policy {policy!r}")
    if not is_streamable(p.grammar):
        raise NotStreamableError("grammar is not top-down deterministic; use prune_tree")
    if stats is None:
        stats = PruneStats()
    root_exact, root_wild = _build_dispatch(p)
    emit_doc_level = bool(p.kept)
    strict = policy == "strict"

    stack: list[_Entry] = []  # kept frames only
    tags: list[str] = []  # input tag path: diagnostics and the depth stat
    pruned_depth = 0
    max_depth = 0

    for event in events:
        kind = type(event)
        if kind is StartElement:
            stats.elements_in += 1
            tags.append(event.tag)
            if len(tags) > max_depth:
                max_depth = len(tags)
            if pruned_depth:
                pruned_depth += 1
                continue
            if stack:
                top = stack[-1]
                entry = top[2].get(event.tag, top[3])
            else:
                entry = root_exact.get(event.tag, root_wild)
            if entry is None:
                if strict:
                    stats.max_depth = max(stats.max_depth, max_depth)
                    raise UnresolvableTagError(event.tag, "/" + "/".join(tags))
                pruned_depth = 1
            elif entry[0]:
                stats.elements_out += 1
                stack.append(entry)
                yield event
            else:
                pruned_depth = 1
        elif kind is Text:
            content = event.content
            size = len(content) if content.isascii() else len(content.encode("utf-8"))
            stats.text_bytes_in += size
            if not pruned_depth and stack and stack[-1][1]:
                stats.text_bytes_out += size
                yield event
        elif kind is EndElement:
            tags.pop()
            if pruned_depth:
                pruned_depth -= 1
            elif stack:
                stack.pop()
                yield event
        else:  # comments and PIs
            if pruned_depth:
                continue
            if stack or emit_doc_level:
                yield event
    stats.max_depth = max(stats.max_depth, max_depth)


# ---------------------------------------------------------------------------
# In-memory pruner


def prune_tree(doc: Document, p: Projector, interpretation: Interpretation | None = None) -> Document:
    pruned, _ = prune_tree_with_origin(doc, p, interpretation=interpretation)
    return pruned


def prune_tree_with_origin(
    doc: Document, p: Projector, interpretation: Interpretation | None = None
) -> tuple[Document, dict[int, int]]:
    """Prune via a validation witness; also map new node ids to old ones.

    Kept nodes appear in the same relative order as in the input, so the
    mapping is injective and order-preserving.  A precomputed
    interpretation may be supplied to amortize validation across many
    projectors of the same grammar.
    """
    if interpretation is None:
        result = validate_tree(doc, p.grammar)
        if isinstance(result, Invalid):
            raise InvalidDocumentError(result)
        interpretation = result

    old_of_clone: dict[int, int] = {}  # id(clone) -> old nid

    def copy_node(old: Node, out: list[Node]) -> None:
        if isinstance(old, (CommentNode, PINode)):
            out.append(
                CommentNode(old.content)
                if isinstance(old, CommentNode)
                else PINode(old.target, old.data)
            )
            return
        rule = interpretation.get(old.nid)
        if rule is None or rule not in p.kept:
            return
        if isinstance(old, TextNode):
            clone: Node = TextNode(old.content)
        else:
            assert isinstance(old, Element)
            clone = Element(old.tag, old.attributes)
            for child in old.children:
                copy_node(child, clone.children)
            for child in clone.children:
                child.parent = clone
        old_of_clone[id(clone)] = old.nid
        out.append(clone)

    top: list[Node] = []
    if p.kept:  # the empty projector yields the empty document
        for child in doc.children:
            copy_node(child, top)

    pruned = Document(top)
    origin = {0: 0}
    for node in pruned.iter_nodes():
        if id(node) in old_of_clone:
            origin[node.nid] = old_of_clone[id(node)]
    return pruned, origin
