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
document node, and each axis reads the grammar's cached masks, so the
fold decodes rules only for its result.

After the forward fold, contexts are narrowed backwards: a context rule
counts only if some chain of steps from it reaches the final results.
Steps whose predicate carries an always-true component (the rewrite of a
positional or otherwise opaque predicate) are exempt: there the original
query may observe sibling positions, so every candidate is retained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .grammar import (
    Grammar,
    GrammarFormatError,
    Rule,
    _header_lines,
    _parse_grammar_lines,
    mask_bits,
    parse_rule_text,
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

_Key = Rule | None  # None stands for the document node


@dataclass(frozen=True)
class Projector:
    """A grammar together with the subset of its rules to keep."""

    grammar: Grammar
    kept: frozenset[Rule]

    def __post_init__(self):
        extra = self.kept - self.grammar.rules
        if extra:
            raise ValueError(f"projector keeps rules outside the grammar: {extra}")

    @property
    def dropped(self) -> frozenset[Rule]:
        return self.grammar.rules - self.kept


def identity_projector(g: Grammar) -> Projector:
    return Projector(g, g.rules)


def empty_projector(g: Grammar) -> Projector:
    return Projector(g, frozenset())


# ---------------------------------------------------------------------------
# Single steps over key masks
#
# A set of keys is an int mask in the grammar's layout: one bit per rule,
# and ``g.bit(None)``, ``doc`` below, for the document node.  Every axis is
# a cached mask of the grammar, and every node test one AND.


def _axis_mask(g: Grammar, bit: int, axis: Axis, doc: int) -> int:
    """The keys one `axis` step from the key whose bit is `bit`.

    Upward steps see only the rules the start names reach: a rule nothing
    derives is never anybody's parent.  The document node is the parent of
    the start rules.
    """
    if axis is Axis.SELF:
        return bit
    if axis is Axis.CHILD:
        return g.child_mask(bit)
    if axis is Axis.DESCENDANT:
        return g.below(bit)
    if axis is Axis.DESCENDANT_OR_SELF:
        return bit | g.below(bit)
    if bit == doc:
        return bit if axis is Axis.ANCESTOR_OR_SELF else 0
    live, starts = g.below(doc), g.child_mask(doc)  # the start rules reach `live`
    if axis is Axis.PARENT:
        up = g.parent_mask(bit) & live
        return up | doc if bit & starts else up
    up = g.above(bit) & live
    if (bit | up) & starts:
        up |= doc
    if axis is Axis.ANCESTOR:
        return up
    if axis is Axis.ANCESTOR_OR_SELF:
        return bit | up
    raise ValueError(f"unknown axis {axis!r}")


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
    doc = g.bit(None)
    found = 0
    for rule in ctx:
        found |= _axis_mask(g, g.bit(rule), axis, doc)
    return frozenset(g.rules_in(found & _test_mask(g, test)))


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
    reach, co_reachable = uppers, lowers
    for bit in mask_bits(uppers):
        reach |= g.below(bit)
    for bit in mask_bits(lowers):
        co_reachable |= g.above(bit)
    return reach & co_reachable


def _fold_path(g: Grammar, steps: Sequence[StepEll], ctx0: int, doc: int) -> tuple[int, int]:
    """Fold steps over a context; returns (final context, keys to keep).

    The kept set covers the refined navigation skeleton, closure chains and
    predicate evidence.  It is empty whenever the final context is empty:
    an unsatisfiable path contributes nothing.
    """
    records = []
    ctx = ctx0
    for step in steps:
        test = _test_mask(g, step.test)
        edges: list[tuple[int, int]] = []  # (context key, its targets)
        pred_evidence: dict[int, int] = {}
        post = 0
        for bit in mask_bits(ctx):
            targets = _axis_mask(g, bit, step.axis, doc) & test
            edges.append((bit, targets))
            post |= targets
        if step.pred is not None:
            surviving = 0
            for bit in mask_bits(post):
                ok, evidence = _pred_sat(g, bit, step.pred, doc)
                if ok:
                    surviving |= bit
                    pred_evidence[bit] = evidence
            post = surviving
        records.append((step, edges, post, pred_evidence))
        ctx = post
        if not ctx:
            return 0, 0

    kept = 0
    needed = ctx
    for step, edges, post, pred_evidence in reversed(records):
        needed_post = post if _has_always_true_part(step.pred) else needed & post
        kept |= needed_post
        for bit, evidence in pred_evidence.items():
            if bit & needed_post:
                kept |= evidence
        needed_pre = 0
        for bit, targets in edges:
            if targets & needed_post:
                needed_pre |= bit
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
            kept |= contribution | final
            for bit in mask_bits(final):
                # below(doc), every rule the start names reach, when the
                # document node itself is selected
                kept |= g.below(bit)
    return Projector(g, frozenset(g.rules_in(kept)))


# ---------------------------------------------------------------------------
# Projector files: the grammar text format with one leading mark per rule,
# `+` kept, `-` dropped.


def projector_to_text(p: Projector) -> str:
    g = p.grammar
    lines = _header_lines(g)
    for rule in g.sorted_rules():
        mark = "+" if rule in p.kept else "-"
        lines.append(f"{mark} {rule_to_text(rule)}")
    return "\n".join(lines) + "\n"


def parse_projector_text(text: str) -> Projector:
    start, attrs, rule_lines = _parse_grammar_lines(text)
    rules: list[Rule] = []
    kept: list[Rule] = []
    for lineno, mark, line in rule_lines:
        rule = parse_rule_text(line, lineno)
        if not mark:
            raise GrammarFormatError("projector rule lines need a +/- mark", lineno)
        rules.append(rule)
        if mark == "+":
            kept.append(rule)
    try:
        return Projector(Grammar(start, rules, attrs), frozenset(kept))
    except ValueError as exc:
        raise GrammarFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Minimality probing


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of a brute-force search for a droppable kept rule.

    status 'minimal': every kept rule has a generated counterexample
    document proving the queries need it.  status 'witness': `witness` can
    be dropped without changing any query result on any document tried
    (and the document supply was exhausted, so the claim is tight for the
    bounded corpus).  status 'budget_exhausted': some rule never showed a
    counterexample but the corpus was cut off by the budget.
    """

    status: str
    witness: Rule | None
    docs_tested: int


def minimality_check(
    p: Projector, qs: Sequence[QueryEll], budget: int, max_star_repeat: int = 2
) -> MinimalityReport:
    from . import oracle, pruner  # local import: oracle depends on this module

    g = p.grammar
    docs = []
    complete = True
    for doc in oracle.enumerate_documents(g, max_star_repeat=max_star_repeat):
        if len(docs) >= budget:
            complete = False
            break
        docs.append(doc)

    if not p.kept:
        return MinimalityReport("minimal", None, len(docs))

    baselines = []
    for doc in docs:
        interp = oracle.require_interpretation(doc, g)
        baselines.append((doc, interp, [oracle.eval_ell(q, doc) for q in qs]))

    unused: Rule | None = None
    for rule in g.sorted_rules():
        if rule not in p.kept:
            continue
        candidate = Projector(g, p.kept - {rule})
        needed = False
        for doc, interp, expected in baselines:
            pruned, origin = pruner.prune_tree_with_origin(doc, candidate, interpretation=interp)
            pair = oracle.PrunedPair(doc, pruned, origin)
            if any(
                not pair.results_match(q_expected, oracle.eval_ell(q, pruned))
                for q, q_expected in zip(qs, expected)
            ):
                needed = True
                break
        if not needed:
            unused = rule
            break

    if unused is None:
        return MinimalityReport("minimal", None, len(docs))
    if complete:
        return MinimalityReport("witness", unused, len(docs))
    return MinimalityReport("budget_exhausted", unused, len(docs))
