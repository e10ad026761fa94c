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
of the root and the origin of every absolute path.

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
    _closure,
    _header_lines,
    _parse_grammar_lines,
    parse_rule_text,
    reachable_rules,
    rule_to_text,
    start_reachable,
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
# Single steps over rule sets


def _child_of(g: Grammar, key: _Key) -> tuple[_Key, ...]:
    if key is None:
        return g.start_rules()
    return g.children(key)


def _parent_of(g: Grammar, key: _Key) -> set[_Key]:
    if key is None:
        return set()
    live = start_reachable(g)
    out: set[_Key] = {r for r in g.parents(key) if r in live}
    if key.name in g.start:
        out.add(None)
    return out


def _apply_axis(g: Grammar, ctx: frozenset[_Key], axis: Axis) -> set[_Key]:
    if axis is Axis.SELF:
        return set(ctx)
    if axis is Axis.CHILD:
        out: set[_Key] = set()
        for key in ctx:
            out.update(_child_of(g, key))
        return out
    if axis is Axis.DESCENDANT:
        return _closure(lambda k: _child_of(g, k), ctx)
    if axis is Axis.DESCENDANT_OR_SELF:
        return set(ctx) | _closure(lambda k: _child_of(g, k), ctx)
    if axis is Axis.PARENT:
        out = set()
        for key in ctx:
            out |= _parent_of(g, key)
        return out
    if axis is Axis.ANCESTOR:
        return _closure(lambda k: _parent_of(g, k), ctx)
    if axis is Axis.ANCESTOR_OR_SELF:
        return set(ctx) | _closure(lambda k: _parent_of(g, k), ctx)
    raise ValueError(f"unknown axis {axis!r}")


def _filter_test(keys: Iterable[_Key], test: NodeTest) -> frozenset[_Key]:
    out: set[_Key] = set()
    for key in keys:
        if key is None:
            if isinstance(test, NodeAny):
                out.add(key)
        elif key.is_text:
            if isinstance(test, (TextTest, NodeAny)):
                out.add(key)
        else:
            if isinstance(test, (Wildcard, NodeAny)):
                out.add(key)
            elif isinstance(test, TagTest) and key.label.matches(test.tag):
                out.add(key)
    return frozenset(out)


def step_transition(
    ctx: Iterable[Rule], axis: Axis, test: NodeTest, g: Grammar
) -> frozenset[Rule]:
    """Rules one `axis` step away from the context rules, filtered by `test`.

    Upward steps are implicitly intersected with the rules reachable from
    the start names; a rule nothing can derive is never anybody's parent.
    """
    keys = _filter_test(_apply_axis(g, frozenset(ctx), axis), test)
    return frozenset(k for k in keys if k is not None)


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


def _rules_between(g: Grammar, uppers: set[_Key], lowers: set[_Key]) -> frozenset[Rule]:
    """Rules lying on some downward chain from `uppers` to `lowers`; the
    document node routes through the start rules."""
    tops: set[Rule] = set()
    for key in uppers:
        if key is None:
            tops.update(g.start_rules())
        else:
            tops.add(key)
    bottoms = {k for k in lowers if k is not None}
    if not tops or not bottoms:
        return frozenset()
    co_reachable = bottoms | _closure(g.parents, bottoms)
    return reachable_rules(g, tops) & co_reachable


def _fold_path(
    g: Grammar, steps: Sequence[StepEll], ctx0: frozenset[_Key]
) -> tuple[frozenset[_Key], frozenset[Rule]]:
    """Fold steps over a context; returns (final context, rules to keep).

    The kept set covers the refined navigation skeleton, closure chains and
    predicate evidence.  It is empty whenever the final context is empty:
    an unsatisfiable path contributes nothing.
    """
    records = []
    ctx = ctx0
    for step in steps:
        edges: dict[_Key, frozenset[_Key]] = {}
        pred_evidence: dict[_Key, frozenset[Rule]] = {}
        post: set[_Key] = set()
        for key in ctx:
            targets = _filter_test(_apply_axis(g, frozenset((key,)), step.axis), step.test)
            edges[key] = targets
            post |= targets
        if step.pred is not None:
            surviving: set[_Key] = set()
            for key in post:
                ok, evidence = _pred_sat(g, key, step.pred)
                if ok:
                    surviving.add(key)
                    pred_evidence[key] = evidence
            post = surviving
            edges = {k: v & post for k, v in edges.items()}
        records.append((step, ctx, frozenset(post), edges, pred_evidence))
        ctx = frozenset(post)
        if not ctx:
            return ctx, frozenset()

    kept: set[Rule] = set()
    needed: set[_Key] = set(ctx)
    for step, pre, post, edges, pred_evidence in reversed(records):
        needed_post = set(post) if _has_always_true_part(step.pred) else needed & post
        kept.update(k for k in needed_post if k is not None)
        for key in needed_post:
            kept |= pred_evidence.get(key, frozenset())
        needed_pre = {k for k in pre if edges[k] & needed_post}
        if step.axis in _CLOSURE_DOWN:
            kept |= _rules_between(g, needed_pre, needed_post)
        elif step.axis in _CLOSURE_UP:
            kept |= _rules_between(g, needed_post, needed_pre)
        needed = needed_pre
    kept.update(k for k in needed if k is not None)
    return ctx, frozenset(kept)


def _pred_sat(g: Grammar, key: _Key, pred: Predicate) -> tuple[bool, frozenset[Rule]]:
    if isinstance(pred, PathExists):
        final, kept = _fold_path(g, pred.path, frozenset((key,)))
        return bool(final), kept
    lok, lev = _pred_sat(g, key, pred.left)
    rok, rev = _pred_sat(g, key, pred.right)
    if isinstance(pred, PredAnd):
        return (lok and rok), (lev | rev if lok and rok else frozenset())
    return (lok or rok), ((lev if lok else frozenset()) | (rev if rok else frozenset()))


_DOC_CTX: frozenset[_Key] = frozenset((None,))


def infer_types(q: QueryEll, g: Grammar) -> frozenset[Rule]:
    """Rules that can generate a node selected by the query; empty means
    the query is statically unsatisfiable under this grammar."""
    out: set[Rule] = set()
    for branch in q.branches:
        final, _ = _fold_path(g, branch, _DOC_CTX)
        out.update(k for k in final if k is not None)
    return frozenset(out)


def infer_projector(qs: Iterable[QueryEll], g: Grammar) -> Projector:
    """Union over queries of navigation skeleton, predicate evidence, and
    the reachable closure of the result rules."""
    kept: set[Rule] = set()
    for q in qs:
        for branch in q.branches:
            final, contribution = _fold_path(g, branch, _DOC_CTX)
            if not final:
                continue
            kept |= contribution
            kept |= reachable_rules(g, (k for k in final if k is not None))
            if None in final:
                # the document node itself is selected: keep everything
                kept |= reachable_rules(g, g.start_rules())
    return Projector(g, frozenset(kept))


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

    def is_minimal(self) -> bool:
        return self.status == "minimal"


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
    for rule in sorted(p.kept, key=Rule.sort_key):
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
