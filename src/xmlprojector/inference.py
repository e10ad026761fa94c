"""Static analysis: from fragment queries to a set of rules worth keeping.

``step_transition`` lifts one navigation step from documents to grammars:
which rules can generate a node reached by this axis/test from a node
generated by the context rules.  ``infer_types`` folds a whole query.
``infer_projector`` additionally records everything the navigation relies
on: rules along witnessing paths (including the chains crossed inside
descendant/ancestor closures), rules touched while deciding predicates,
and the full reachable closure of the result rules, so result subtrees
survive pruning whole.

The fold works on contexts that may also contain the document node,
represented as ``None`` alongside rules; the document node is the parent
of the root and the origin of every absolute path.  Contexts and kept sets
are int masks over the grammar's sorted rules plus one bit for the
document node, and each axis reads the grammar's cached rows, so the
fold decodes no rule.

A ``Projector`` stores its kept set as one such mask (``mask``) with the
document node's bit cleared; ``infer_projector`` returns the fold's mask
as is.  ``kept``, the frozenset of kept rules, is decoded on first read
and cached; concurrent first reads store the same value, so a shared
projector is safe to read from any thread.  Projector files, the walk
tables and ``oracle.minimality_check`` read the mask's bits, so inferring,
saving, loading and pruning never decode it.

Each step maps a whole mask: forward, its context's image (``_image``),
filtered by the node test and then the predicate, one candidate at a
time; backward, the preimage (``_preimage``) of the results still needed,
within the step's context.  So after the forward fold, contexts are
narrowed backwards: a context rule counts only if some chain of steps from
it reaches the final results.  Steps whose predicate carries an
always-true component (the rewrite of a positional or otherwise opaque
predicate) are exempt: there the original query may observe sibling
positions, so every candidate is retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Sequence

from .grammar import (
    Grammar,
    Rule,
    _header_lines,
    _read_rule_file,
    mask_bits,
    rule_to_text,
)
from .xpath import (
    SELF_STEP,
    SUBTREE_STEP,
    Axis,
    NodeAny,
    NodeTest,
    PathExists,
    PredAnd,
    Predicate,
    QueryEll,
    StepEll,
    TagTest,
    TextTest,
    Wildcard,
)

@dataclass(frozen=True, init=False)
class Projector:
    """A grammar together with the subset of its rules to keep.

    The kept set is stored once, as ``mask``: an int in the grammar's key
    layout, bit i for the i-th rule of ``sorted_rules()``, with the
    document node's bit (``bit(None)``) and every bit above it clear.
    ``Projector(g, kept)`` takes that mask or an iterable of rules, and
    raises ``ValueError`` for a rule outside the grammar or a bit beyond
    its rules.  ``kept``, the frozenset of kept rules, is decoded from the
    mask on first read and cached; inference, projector files, the walk
    tables and minimality probing read the bits and never decode it.
    Concurrent first reads each decode and store the same value, so a
    shared projector is safe to read from any thread.  Projectors are
    equal when their grammars and masks are: equal grammars sort their
    rules alike, so they share one layout.
    """

    grammar: Grammar
    mask: int
    _kept: frozenset[Rule] | None = field(default=None, compare=False, repr=False)

    def __init__(self, grammar: Grammar, kept: int | Iterable[Rule]):
        if not isinstance(kept, int):
            try:
                kept = grammar.mask_of(kept)
            except KeyError as exc:
                raise ValueError(f"projector keeps a rule outside the grammar: {exc}") from None
        if kept < 0 or kept >> len(grammar.sorted_rules()):
            raise ValueError(f"projector mask {kept:#x} has bits beyond the grammar's rules")
        object.__setattr__(self, "grammar", grammar)
        object.__setattr__(self, "mask", kept)

    @property
    def kept(self) -> frozenset[Rule]:
        kept = self._kept
        if kept is None:
            kept = frozenset(self.grammar.rules_in(self.mask))
            object.__setattr__(self, "_kept", kept)
        return kept

    @property
    def dropped(self) -> frozenset[Rule]:
        return frozenset(self.grammar.rules_in(~self.mask))


def identity_projector(g: Grammar) -> Projector:
    return Projector(g, (1 << len(g.sorted_rules())) - 1)


def empty_projector(g: Grammar) -> Projector:
    return Projector(g, 0)


# ---------------------------------------------------------------------------
# Steps over key masks
#
# A set of keys is an int mask in the grammar's layout: one bit per rule,
# and ``g.bit(None)``, ``doc`` below, for the document node.  A step maps a
# whole mask at once, forward (``_image``) or backward (``_preimage``), as a
# union of the grammar's cached rows, and every node test is one AND.


def _image(g: Grammar, ctx: int, axis: Axis, doc: int) -> int:
    """The keys one `axis` step from some key of the context.

    Upward steps see only the document node and the rules the start names
    reach: a rule nothing derives is never anybody's parent.
    """
    if axis is Axis.SELF:
        return ctx
    if axis is Axis.CHILD:
        return g.child_mask(ctx)
    if axis is Axis.DESCENDANT:
        return g.below(ctx)
    if axis is Axis.DESCENDANT_OR_SELF:
        return ctx | g.below(ctx)
    live = g.below(doc) | doc
    if axis is Axis.PARENT:
        return g.parent_mask(ctx) & live
    if axis is Axis.ANCESTOR:
        return g.above(ctx) & live
    if axis is Axis.ANCESTOR_OR_SELF:
        return ctx | g.above(ctx) & live
    raise ValueError(f"unknown axis {axis!r}")


def _preimage(g: Grammar, needed: int, axis: Axis, doc: int) -> int:
    """The keys from which one `axis` step reaches some key of `needed`:
    ``_image`` inverted, so a key k is here iff ``_image(k)`` meets
    `needed`.  The down axes read parent rows over the needed keys, the
    up axes child rows over the live ones."""
    if axis is Axis.SELF:
        return needed
    if axis is Axis.CHILD:
        return g.parent_mask(needed)
    if axis is Axis.DESCENDANT:
        return g.above(needed)
    if axis is Axis.DESCENDANT_OR_SELF:
        return needed | g.above(needed)
    needed_live = needed & (g.below(doc) | doc)
    if axis is Axis.PARENT:
        return g.child_mask(needed_live)
    if axis is Axis.ANCESTOR:
        return g.below(needed_live)
    if axis is Axis.ANCESTOR_OR_SELF:
        return needed | g.below(needed_live)
    raise ValueError(f"unknown axis {axis!r}")


def _image_within(g: Grammar, ctx: int, axis: Axis, test: int, doc: int) -> int:
    """``_image(ctx) & test``.  Where the test admits fewer keys than the
    context holds, as a tag test under a `//` does, each admitted key is
    kept iff its preimage meets the context, so the step reads the rows
    of the few admitted keys instead of those of the whole context."""
    if test < 0 or test.bit_count() >= ctx.bit_count():  # node() admits every key
        return _image(g, ctx, axis, doc) & test
    out = 0
    for key in mask_bits(test):
        if _preimage(g, key, axis, doc) & ctx:
            out |= key
    return out


def _test_mask(g: Grammar, test: NodeTest) -> int:
    """The keys a node test admits; only ``node()`` admits the document."""
    if isinstance(test, TagTest):
        return g.tag_mask(test.tag)
    if isinstance(test, Wildcard):
        return g.element_mask()
    if isinstance(test, TextTest):
        return g.text_mask()
    if isinstance(test, NodeAny):
        return -1  # every bit set
    raise ValueError(f"unknown node test {test!r}")


def step_transition(
    ctx: Iterable[Rule], axis: Axis, test: NodeTest, g: Grammar
) -> frozenset[Rule]:
    """Rules one `axis` step away from the context rules, filtered by `test`.

    Upward steps are implicitly intersected with the rules reachable from
    the start names; a rule nothing can derive is never anybody's parent.
    """
    keys = g.mask_of(ctx)
    return frozenset(g.rules_in(_image_within(g, keys, axis, _test_mask(g, test), g.bit(None))))


# ---------------------------------------------------------------------------
# Query folds

_CLOSURE_DOWN = (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF)
_CLOSURE_UP = (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF)


def _has_always_true_part(pred: Predicate | None) -> bool:
    """Detect rewrites of predicates whose original form we cannot analyze
    (positional tests, opaque functions).  Such steps must keep every
    candidate: the original predicate may be sensitive to sibling order."""
    if pred is None:
        return False
    if isinstance(pred, PathExists):
        return pred.path in ((SELF_STEP,), (SUBTREE_STEP,))
    return _has_always_true_part(pred.left) or _has_always_true_part(pred.right)


def _rules_between(g: Grammar, uppers: int, lowers: int) -> int:
    """Keys lying on some downward chain from `uppers` to `lowers`; the
    document node routes through the start rules."""
    return (uppers | g.below(uppers)) & (lowers | g.above(lowers))


def _fold_path(g: Grammar, steps: Sequence[StepEll], ctx0: int, doc: int) -> tuple[int, int]:
    """Fold steps over a context; returns (final context, keys to keep).

    Forward, each step maps its whole context to its image and filters it
    by the node test and predicate; backward, each step's needed context
    is the preimage of its needed results within its context.  The kept
    set covers the refined navigation skeleton, closure chains and
    predicate evidence.  It is empty whenever the final context is empty:
    an unsatisfiable path contributes nothing.
    """
    records = []  # (step, its context, its results, predicate evidence per result)
    ctx = ctx0
    for step in steps:
        post = _image_within(g, ctx, step.axis, _test_mask(g, step.test), doc)
        pred_evidence: dict[int, int] = {}
        if step.pred is not None:
            surviving = 0
            for bit in mask_bits(post):
                ok, evidence = _pred_sat(g, bit, step.pred, doc)
                if ok:
                    surviving |= bit
                    pred_evidence[bit] = evidence
            post = surviving
        records.append((step, ctx, post, pred_evidence))
        ctx = post
        if not ctx:
            return 0, 0

    kept = 0
    needed = ctx
    for step, pre, post, pred_evidence in reversed(records):
        needed_post = post if _has_always_true_part(step.pred) else needed & post
        kept |= needed_post
        for bit, evidence in pred_evidence.items():
            if bit & needed_post:
                kept |= evidence
        # a one-key context is the source of every result, so of the needed ones
        needed_pre = _preimage(g, needed_post, step.axis, doc) & pre if pre & (pre - 1) else pre
        if step.axis in _CLOSURE_DOWN:
            kept |= _rules_between(g, needed_pre, needed_post)
        elif step.axis in _CLOSURE_UP:
            kept |= _rules_between(g, needed_post, needed_pre)
        needed = needed_pre
    return ctx, kept | needed


def _pred_sat(g: Grammar, bit: int, pred: Predicate, doc: int) -> tuple[bool, int]:
    if isinstance(pred, PathExists):
        final, kept = _fold_path(g, pred.path, bit, doc)
        return bool(final), kept
    lok, lev = _pred_sat(g, bit, pred.left, doc)
    rok, rev = _pred_sat(g, bit, pred.right, doc)
    if isinstance(pred, PredAnd):
        return (lok and rok), (lev | rev if lok and rok else 0)
    return (lok or rok), ((lev if lok else 0) | (rev if rok else 0))


def infer_types(q: QueryEll, g: Grammar) -> frozenset[Rule]:
    """Rules that can generate a node selected by the query; empty means
    the query is statically unsatisfiable under this grammar."""
    doc = g.bit(None)
    out = 0
    for branch in q.branches:
        final, _ = _fold_path(g, branch, doc, doc)
        out |= final
    return frozenset(g.rules_in(out))


def infer_projector(qs: Iterable[QueryEll], g: Grammar) -> Projector:
    """Union over queries of navigation skeleton, predicate evidence, and
    the reachable closure of the result rules."""
    doc = g.bit(None)
    kept = 0
    for q in qs:
        for branch in q.branches:
            final, contribution = _fold_path(g, branch, doc, doc)
            # below(doc), every rule the start names reach, when the
            # document node itself is selected
            kept |= contribution | final | g.below(final)
    return Projector(g, kept & ~doc)


# ---------------------------------------------------------------------------
# Projector files: the grammar text format with one leading mark per rule,
# `+` kept, `-` dropped.


def projector_to_text(p: Projector) -> str:
    lines = _header_lines(p.grammar)
    mask = p.mask
    for i, rule in enumerate(p.grammar.sorted_rules()):
        mark = "+" if mask >> i & 1 else "-"
        lines.append(f"{mark} {rule_to_text(rule)}")
    return "\n".join(lines) + "\n"


def parse_projector_text(text: str) -> Projector:
    """Read a projector file (``projector_to_text``'s format) in one pass;
    see ``grammar._read_rule_file``."""
    g, rules, marks = _read_rule_file(text, True)
    # one bit per `+` line; every rule read is the grammar's
    return Projector(g, g.mask_of(compress(rules, map("+".__eq__, marks))))
