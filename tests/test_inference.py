import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmlprojector import (
    GrammarFormatError,
    Projector,
    any_grammar,
    approximate_to_ell,
    empty_projector,
    infer_projector,
    infer_types,
    minimality_check,
    parse_dtd,
    parse_projector_text,
    parse_query,
    projector_to_text,
    reachable_rules,
    step_transition,
)
from xmlprojector.grammar import Atom, Grammar, Opt, Rule, Star, mask_bits
from xmlprojector.inference import (
    _fold_path,
    _has_always_true_part,
    _image,
    _preimage,
    _test_mask,
)
from xmlprojector.pruner import prune_file
from xmlprojector.xpath import (
    WILDCARD,
    Axis,
    NodeAny,
    PathExists,
    PredAnd,
    TagTest,
    TextTest,
    Wildcard,
)

from conftest import XMARK_DTD, write_xmark_doc
from test_acceptance import XMARK_QUERIES
from test_golden import _inference_cases, _wide_dtd


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


def test_parent_rows_are_built_only_for_upward_steps(tmp_path):
    # loading a projector and streaming through it never takes a parent
    # step, so the parent rows stay unbuilt; the first upward step builds
    # them, and parent and ancestor steps match the reference
    p = infer_projector([_ell(q) for q in XMARK_QUERIES], parse_dtd(XMARK_DTD))
    loaded = parse_projector_text(projector_to_text(p))
    path = tmp_path / "xmark.xml"
    write_xmark_doc(path, 20_000)
    out: list[str] = []
    with open(path, "rb") as fh:
        prune_file(fh, loaded, out.append)
    g = loaded.grammar
    assert "<person" in "".join(out) and g._up == []
    for rule in g.sorted_rules():
        for axis in (Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
            found = step_transition([rule], axis, NodeAny(), g)
            assert found == _ref_test(_ref_axis(g, rule, axis), NodeAny()), (rule, axis)
    assert len(g._up) == len(g.sorted_rules()) + 1


# ---------------------------------------------------------------------------
# The whole-mask fold against the per-key fold it replaced: each context key
# stepped on its own, one (key, targets) edge per key, and the backward pass
# scanning every edge.  Both return (final context, kept keys) as masks, the
# document node's bit included.


def _ref_axis_mask(g, bit, axis, doc):
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
    live, starts = g.below(doc), g.child_mask(doc)
    if axis is Axis.PARENT:
        up = g.parent_mask(bit) & live
        return up | doc if bit & starts else up
    up = g.above(bit) & live
    if (bit | up) & starts:
        up |= doc
    if axis is Axis.ANCESTOR:
        return up
    return bit | up


def _ref_rules_between(g, uppers, lowers):
    reach, co_reachable = uppers, lowers
    for bit in mask_bits(uppers):
        reach |= g.below(bit)
    for bit in mask_bits(lowers):
        co_reachable |= g.above(bit)
    return reach & co_reachable


def _ref_fold_path(g, steps, ctx0, doc):
    records = []
    ctx = ctx0
    for step in steps:
        test = _test_mask(g, step.test)
        edges = []
        pred_evidence = {}
        post = 0
        for bit in mask_bits(ctx):
            targets = _ref_axis_mask(g, bit, step.axis, doc) & test
            edges.append((bit, targets))
            post |= targets
        if step.pred is not None:
            surviving = 0
            for bit in mask_bits(post):
                ok, evidence = _ref_pred_sat(g, bit, step.pred, doc)
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
        if step.axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            kept |= _ref_rules_between(g, needed_pre, needed_post)
        elif step.axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
            kept |= _ref_rules_between(g, needed_post, needed_pre)
        needed = needed_pre
    return ctx, kept | needed


def _ref_pred_sat(g, bit, pred, doc):
    if isinstance(pred, PathExists):
        final, kept = _ref_fold_path(g, pred.path, bit, doc)
        return bool(final), kept
    lok, lev = _ref_pred_sat(g, bit, pred.left, doc)
    rok, rev = _ref_pred_sat(g, bit, pred.right, doc)
    if isinstance(pred, PredAnd):
        return (lok and rok), (lev | rev if lok and rok else 0)
    return (lok or rok), ((lev if lok else 0) | (rev if rok else 0))


_AXES = ("child", "descendant", "descendant-or-self", "parent", "ancestor", "ancestor-or-self",
         "self")


def _random_query(rng, tags):
    """An absolute query over every axis, node test and predicate kind;
    its contexts hold the document node after `/`, after `..` climbs back
    up to it and under ancestor-or-self::node()."""

    def step(depth):
        roll = rng.random()
        test = rng.choice(tags) if roll < 0.5 else rng.choice(("*", "text()", "node()"))
        text = f"{rng.choice(_AXES)}::{test}" if rng.random() < 0.6 else rng.choice(tags + [".."])
        if depth < 2 and rng.random() < 0.3:
            kind = rng.choice(("path", "and", "or", "position"))
            if kind == "position":
                text += rng.choice(("[1]", "[last()]", "[position()=2]"))
            elif kind == "path":
                text += f"[{path(depth + 1)}]"
            else:
                text += f"[{path(depth + 1)} {kind} {path(depth + 1)}]"
        return text

    def path(depth):
        return "/".join(step(depth) for _ in range(rng.randint(1, 3)))

    prefix = rng.choice(("/", "//", f"/{rng.choice(tags)}/../", "//*/ancestor-or-self::node()/"))
    return prefix + path(0)


def _wide_grammars():
    return {f"wide{seed}": parse_dtd(_wide_dtd(seed, n)[0]) for seed, n in ((1, 60), (2, 200))}


def test_mask_fold_matches_per_key_fold():
    rng = random.Random(11)
    grammars = {**_differential_grammars(), **_wide_grammars()}
    for name, g in grammars.items():
        doc = g.bit(None)
        every = (doc << 1) - 1
        tags = sorted({r.label.tag for r in g.rules if not r.is_text and r.label.tag}) or ["x"]
        for _ in range(60):
            query = _random_query(rng, tags)
            # from the document node, from a random mask of keys, and from
            # one rule with or without the document node
            one = g.bit(rng.choice(g.sorted_rules())) | rng.choice((doc, 0))
            for ctx in (doc, rng.getrandbits(doc.bit_length()) & every, one):
                for branch in _ell(query).branches:
                    found = _fold_path(g, branch, ctx, doc)
                    assert found == _ref_fold_path(g, branch, ctx, doc), (name, query, ctx)


def test_preimage_inverts_image():
    # k is in _preimage(n) iff _image(k) meets n, for every pair of keys
    for name, g in _differential_grammars().items():
        doc = g.bit(None)
        keys = [g.bit(r) for r in g.sorted_rules()] + [doc]
        for axis in Axis:
            images = {k: _image(g, k, axis, doc) for k in keys}
            for n in keys:
                pre = _preimage(g, n, axis, doc)
                for k in keys:
                    assert bool(pre & k) == bool(images[k] & n), (name, axis, k, n)


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
    with pytest.raises(ValueError, match="outside the grammar"):
        Projector(g0, frozenset([Rule.text("Alien")]))
    # the mask holds the grammar's rules and nothing else
    n = len(g0.sorted_rules())
    assert Projector(g0, (1 << n) - 1).kept == g0.rules
    with pytest.raises(ValueError, match="beyond the grammar's rules"):
        Projector(g0, 1 << n)
    with pytest.raises(ValueError, match="beyond the grammar's rules"):
        Projector(g0, [None])  # the document node is no rule


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
# The kept mask


@functools.cache
def _mask_grammars() -> list[Grammar]:
    grammars = _differential_grammars()
    return [grammars[name] for name in sorted(grammars)]


def _respaced(line: str, draw) -> str:
    """The line with each space widened and whitespace around it."""
    gaps = st.sampled_from([" ", "  ", "\t", " \t "])
    parts = line.split(" ")
    out = draw(st.sampled_from(["", "  ", "\t"])) + parts[0]
    for part in parts[1:]:
        out += draw(gaps) + part
    return out + draw(st.sampled_from(["", " ", "\t"]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projector_mask_matches_its_rules(data):
    g = data.draw(st.sampled_from(_mask_grammars()))
    rules = g.sorted_rules()
    chosen = frozenset(data.draw(st.sets(st.sampled_from(rules))))
    by_rules = Projector(g, chosen)
    mask = by_rules.mask
    assert g.rules_in(mask) == [r for r in rules if r in chosen]
    assert by_rules.kept == chosen
    by_mask = Projector(g, mask)
    assert by_mask == by_rules and hash(by_mask) == hash(by_rules)
    assert by_mask.kept == chosen
    assert by_mask.dropped == g.rules - chosen
    text = projector_to_text(by_rules)
    assert projector_to_text(by_mask) == text
    # the document node's bit, any higher bit and negative masks are refused
    for bad in (mask | g.bit(None), mask | g.bit(None) << data.draw(st.integers(1, 70)), -1):
        with pytest.raises(ValueError):
            Projector(g, bad)
    # a hand-written file: rule lines in any order, odd spacing, comments
    header, lines = text.splitlines()[:1], text.splitlines()[1:]
    header += [line for line in lines if line.startswith("attlist:")]
    rule_lines = [line for line in lines if line[0] in "+-"]
    shuffled = data.draw(st.permutations(rule_lines))
    hand = [_respaced(line, data.draw) for line in header]
    for line in shuffled:
        hand.append(_respaced(line, data.draw))
        hand.append(data.draw(st.sampled_from(["", "   ", "# a comment"])))
    loaded = parse_projector_text("\n".join(hand))
    assert loaded.mask == mask and loaded == by_rules
    assert projector_to_text(loaded) == text


def test_shipping_path_never_decodes_the_kept_set(xmark_grammar, tmp_path):
    # infer -> projector file -> prune, streamed and in memory, reads only
    # the projectors' masks: their decoded `kept` stays unset
    from xmlprojector import parse_xml, prune_tree, serialize

    path = tmp_path / "x.xml"
    write_xmark_doc(path, 20_000)
    data = path.read_text()
    inferred = infer_projector([_ell("//person/name"), _ell("//item/name")], xmark_grammar)
    loaded = parse_projector_text(projector_to_text(inferred))
    assert loaded == inferred and 0 < inferred.mask.bit_count() < len(xmark_grammar.rules)
    streamed: list[str] = []
    prune_file(data, loaded, streamed.append)
    in_memory = serialize(prune_tree(parse_xml(data), loaded))
    assert "".join(streamed) == in_memory and len(in_memory) < len(data)
    assert inferred._kept is None and loaded._kept is None
    # reading `kept` decodes it once, into the cache this test watches
    assert loaded.kept is loaded.kept and loaded._kept is not None


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
