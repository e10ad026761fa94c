import random

import pytest

from xmlprojector import (
    GrammarFormatError,
    Projector,
    any_grammar,
    approximate_to_ell,
    empty_projector,
    infer_projector,
    infer_types,
    minimality_check,
    parse_projector_text,
    parse_query,
    projector_to_text,
    reachable_rules,
    step_transition,
)
from xmlprojector.grammar import Atom, Grammar, Opt, Rule, Star
from xmlprojector.xpath import WILDCARD, Axis, NodeAny, TagTest, TextTest, Wildcard

from test_golden import _inference_cases


def _rules(g):
    return {r.name: r for r in g.rules if not r.is_text} | {
        f"{r.name}:text": r for r in g.rules if r.is_text
    }


def _ell(text):
    return approximate_to_ell(parse_query(text))


def _names(rules):
    return sorted(r.name for r in rules)


# ---------------------------------------------------------------------------
# step_transition


def test_step_child_tag(g0):
    r = _rules(g0)
    assert step_transition([r["Doc"]], Axis.CHILD, TagTest("a"), g0) == {r["A"]}


def test_step_parent_wildcard(g0):
    r = _rules(g0)
    assert step_transition([r["B"]], Axis.PARENT, WILDCARD, g0) == {r["A"]}


def test_step_self_label_mismatch(g0):
    r = _rules(g0)
    assert step_transition([r["A"]], Axis.SELF, TagTest("b"), g0) == frozenset()


def test_step_descendant_wildcard(g0):
    r = _rules(g0)
    assert step_transition([r["Doc"]], Axis.DESCENDANT, WILDCARD, g0) == {
        r["A"],
        r["B"],
        r["C"],
    }


def test_step_descendant_text(g0):
    r = _rules(g0)
    found = step_transition([r["A"]], Axis.DESCENDANT, TextTest(), g0)
    assert found == {r["TB:text"], r["TC:text"]}


def test_step_empty_context(g0):
    assert step_transition([], Axis.CHILD, NodeAny(), g0) == frozenset()


def test_step_parent_ignores_unreachable_rules(g0):
    # an orphan rule mentions A but nothing derives the orphan itself
    from xmlprojector.grammar import Atom, Grammar, Star

    g = Grammar(
        start=("Doc",),
        rules=tuple(g0.rules) + (Rule.element("Orphan", "orphan", Star(Atom("A"))),),
    )
    r = _rules(g)
    assert step_transition([r["A"]], Axis.PARENT, WILDCARD, g) == {r["Doc"]}


def test_child_parent_duality(g0, recursive_grammar, mixed_grammar):
    # r' in child({r}) iff r in parent({r'}), for start-reachable grammars
    for g in (g0, recursive_grammar, mixed_grammar):
        rules = sorted(g.rules, key=Rule.sort_key)
        for r in rules:
            children = step_transition([r], Axis.CHILD, NodeAny(), g)
            for r2 in rules:
                parents = step_transition([r2], Axis.PARENT, NodeAny(), g)
                assert (r2 in children) == (r in parents), (r, r2)


def test_step_monotone(g0, xmark_grammar):
    rng = random.Random(3)
    for g in (g0, xmark_grammar):
        rules = sorted(g.rules, key=Rule.sort_key)
        for axis in Axis:
            for _ in range(10):
                small = set(rng.sample(rules, rng.randint(0, 3)))
                big = small | set(rng.sample(rules, rng.randint(0, 3)))
                s = step_transition(small, axis, NodeAny(), g)
                b = step_transition(big, axis, NodeAny(), g)
                assert s <= b


# ---------------------------------------------------------------------------
# step_transition and reachable_rules against a brute-force reference: one
# fixpoint over sets per call, with the document node as None


def _ref_closure(step, seeds):
    seen = set()
    work = list(seeds)
    while work:
        for nxt in step(work.pop()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def _ref_children(g, rule):
    return [r for name in g.child_names(rule) for r in g.rules_of(name)]


def _ref_reachable(g, seeds):
    seeds = frozenset(seeds)
    return seeds | _ref_closure(lambda k: _ref_children(g, k), seeds)


def _ref_axis(g, key, axis):
    live = _ref_reachable(g, g.start_rules())

    def child_of(k):
        return g.start_rules() if k is None else _ref_children(g, k)

    def parent_of(k):
        if k is None:
            return set()
        out = {r for r in g.sorted_rules() if k.name in g.child_names(r) and r in live}
        if k.name in g.start:
            out.add(None)
        return out

    return {
        Axis.SELF: {key},
        Axis.CHILD: set(child_of(key)),
        Axis.DESCENDANT: _ref_closure(child_of, [key]),
        Axis.DESCENDANT_OR_SELF: {key} | _ref_closure(child_of, [key]),
        Axis.PARENT: parent_of(key),
        Axis.ANCESTOR: _ref_closure(parent_of, [key]),
        Axis.ANCESTOR_OR_SELF: {key} | _ref_closure(parent_of, [key]),
    }[axis]


def _ref_test(keys, test):
    out = set()
    for key in keys:
        if key is None:
            ok = isinstance(test, NodeAny)
        elif key.is_text:
            ok = isinstance(test, (TextTest, NodeAny))
        else:
            ok = isinstance(test, (Wildcard, NodeAny)) or (
                isinstance(test, TagTest) and key.label.matches(test.tag)
            )
        if ok:
            out.add(key)
    return {k for k in out if k is not None}


def _differential_grammars():
    grammars = {name: g for name, (g, _) in _inference_cases().items()}
    g0 = grammars["G0"]
    # non-live parents: an orphan mentions A, but nothing derives the orphan
    grammars["orphan"] = Grammar(
        start=("Doc",),
        rules=tuple(g0.rules) + (Rule.element("Orphan", "orphan", Star(Atom("A"))),),
    )
    # a start name that recurs below itself, under a wildcard, next to a
    # second rule of the same name
    grammars["recurring-start"] = Grammar(
        start=("S",),
        rules=(
            Rule.element("S", "s", Star(Atom("A"))),
            Rule.text("S"),
            Rule.element("A", "_", Opt(Atom("S"))),
            Rule.element("B", "b", Atom("S")),
        ),
    )
    return grammars


def test_step_transition_matches_reference():
    for name, g in _differential_grammars().items():
        rules = g.sorted_rules()
        tags = sorted({r.label.tag for r in rules if not r.is_text and r.label.tag})
        tests = [TagTest(t) for t in tags + ["not-a-tag"]] + [WILDCARD, TextTest(), NodeAny()]
        for rule in rules:
            for axis in Axis:
                reached = _ref_axis(g, rule, axis)
                for test in tests:
                    found = step_transition([rule], axis, test, g)
                    assert found == _ref_test(reached, test), (name, rule, axis, test)


def test_reachable_rules_matches_reference():
    rng = random.Random(5)
    for name, g in _differential_grammars().items():
        rules = g.sorted_rules()
        seeds = [[r] for r in rules] + [list(g.start_rules()), []]
        seeds += [rng.sample(rules, min(len(rules), 3)) for _ in range(5)]
        for seed in seeds:
            assert reachable_rules(g, seed) == _ref_reachable(g, seed), (name, seed)


def test_ancestor_steps_reach_the_document_node(g0):
    # only the document node has a `doc` child, so the last step finds Doc
    # only if the ancestor step reached the document node
    for text in ("//b/ancestor::node()/doc", "/doc/ancestor::node()/doc", "/doc/../doc"):
        assert _names(infer_types(_ell(text), g0)) == ["Doc"], text
    assert infer_types(_ell("//b/ancestor::*/doc"), g0) == frozenset()
    assert infer_types(_ell("/doc/a/../../doc"), g0) == infer_types(_ell("/doc"), g0)
    g = _differential_grammars()["recurring-start"]
    (a,) = g.rules_of("A")
    s = next(r for r in g.rules_of("S") if not r.is_text)
    assert step_transition([a], Axis.ANCESTOR, NodeAny(), g) == {s, a}


# ---------------------------------------------------------------------------
# infer_types


def test_types_child_chain(g0):
    assert _names(infer_types(_ell("/doc/a/b"), g0)) == ["B"]


def test_types_statically_unsatisfiable(g0):
    assert infer_types(_ell("/doc/c"), g0) == frozenset()


def test_types_untyped_document():
    g = any_grammar()
    found = infer_types(_ell("//a/b"), g)
    assert found == {r for r in g.rules if not r.is_text}


def test_types_upward(g0):
    assert _names(infer_types(_ell("//b/ancestor::a"), g0)) == ["A"]
    assert _names(infer_types(_ell("//c/parent::a/b"), g0)) == ["B"]


def test_types_predicates_refine(g0):
    # no a rule can have a z child, so the predicate kills the branch
    assert infer_types(_ell("/doc/a[z]/b"), g0) == frozenset()
    assert _names(infer_types(_ell("/doc/a[c]/b"), g0)) == ["B"]


# ---------------------------------------------------------------------------
# infer_projector


def test_projector_child_chain_keeps_result_subtree(g0):
    pi = infer_projector([_ell("/doc/a/b")], g0)
    assert _names(pi.kept) == ["A", "B", "Doc", "TB"]


def test_projector_predicate_keeps_witness_shell(g0):
    pi = infer_projector([_ell("/doc/a[c]/b")], g0)
    assert _names(pi.kept) == ["A", "B", "C", "Doc", "TB"]  # TC dropped


def test_projector_untyped_cannot_prune():
    g = any_grammar()
    pi = infer_projector([_ell("//a/b")], g)
    assert pi.kept == g.rules


def test_projector_empty_for_unsatisfiable(g0):
    assert infer_projector([_ell("/doc/c")], g0).kept == frozenset()


def test_projector_batch_unions(g0):
    pi = infer_projector([_ell("/doc/a/b"), _ell("//c")], g0)
    assert _names(pi.kept) == ["A", "B", "C", "Doc", "TB", "TC"]


def test_projector_descendant_navigation_prunes_siblings(xmark_grammar):
    pi = infer_projector([_ell("//person/name")], xmark_grammar)
    names = _names(pi.kept)
    assert "Regions" not in names and "Item" not in names
    assert {"Site", "People", "Person", "Name", "TName"} <= set(names)


def test_projector_contains_infer_types_closure(g0, xmark_grammar, recursive_grammar):
    queries = ["/doc/a/b", "//c", "/doc/a[c]/b", "//b/ancestor::a"]
    for g in (g0, recursive_grammar):
        for text in queries:
            q = _ell(text)
            pi = infer_projector([q], g)
            assert reachable_rules(g, infer_types(q, g)) <= pi.kept


def test_projector_root_query_keeps_everything(g0):
    pi = infer_projector([_ell("/")], g0)
    assert pi.kept == g0.rules


def test_projector_rejects_foreign_rules(g0):
    with pytest.raises(ValueError):
        Projector(g0, frozenset([Rule.text("Alien")]))


# ---------------------------------------------------------------------------
# Projector files


def test_projector_file_round_trip(g0, xmark_grammar):
    for g, query in ((g0, "/doc/a/b"), (xmark_grammar, "//person/name")):
        pi = infer_projector([_ell(query)], g)
        text = projector_to_text(pi)
        assert parse_projector_text(text) == pi
    assert "+ B -> b [ TB* ]" in projector_to_text(infer_projector([_ell("/doc/a/b")], g0))
    assert "- TC -> String" in projector_to_text(infer_projector([_ell("/doc/a/b")], g0))


def test_projector_file_requires_marks(g0):
    from xmlprojector import grammar_to_text

    with pytest.raises(GrammarFormatError):
        parse_projector_text(grammar_to_text(g0))


# ---------------------------------------------------------------------------
# Minimality probing (small budgets; the acceptance suite runs the full ones)


def test_minimality_witness_and_minimal(g0):
    q = _ell("/doc/a/b")
    pi = infer_projector([q], g0)
    assert minimality_check(pi, [q], 200).status == "minimal"
    c_rule = next(r for r in g0.rules if r.name == "C")
    report = minimality_check(Projector(g0, pi.kept | {c_rule}), [q], 200)
    assert report.status == "witness"
    assert report.witness == c_rule


def test_minimality_empty_projector(g0):
    assert minimality_check(empty_projector(g0), [], 10).status == "minimal"


def test_minimality_budget_exhaustion(g0):
    q = _ell("/doc/a/b")
    pi = infer_projector([q], g0)
    c_rule = next(r for r in g0.rules if r.name == "C")
    report = minimality_check(Projector(g0, pi.kept | {c_rule}), [q], 5)
    assert report.status == "budget_exhausted"
    assert report.docs_tested == 5
