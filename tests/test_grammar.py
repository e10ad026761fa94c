import pickle
import random
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmlprojector import (
    Alt,
    Atom,
    Empty,
    Epsilon,
    GenConfig,
    Grammar,
    GrammarError,
    GrammarFormatError,
    Invalid,
    Label,
    Opt,
    Plus,
    Rule,
    Seq,
    Star,
    any_grammar,
    compile_content_model,
    generate_document,
    grammar_to_text,
    is_streamable,
    parse_dtd,
    parse_grammar_text,
    parse_xml,
    reachable_rules,
    serialize,
    validate_tree,
)
from xmlprojector.doc import Document, Element, TextNode, subtree_text
from xmlprojector.grammar import (
    _NAME_RE,
    _TOKEN_RE,
    EMPTY,
    EPSILON,
    WalkTable,
    _regex_names,
    _validate_general,
    alt,
    names_in,
    parse_regex_text,
    parse_rule_text,
    regex_to_text,
    rule_to_text,
    seq,
)

from conftest import (
    DEEP_DTD,
    G0_DTD,
    MIXED_DTD,
    RECURSIVE_DTD,
    XMARK_DTD,
    write_xmark_doc,
)

# ---------------------------------------------------------------------------
# Independent language-membership oracle: Brzozowski derivatives.  Nothing
# here shares code with the Glushkov construction under test.


def _nullable(r) -> bool:
    if isinstance(r, (Epsilon, Star, Opt)):
        return True
    if isinstance(r, (Empty, Atom)):
        return False
    if isinstance(r, Seq):
        return all(_nullable(part) for part in r.parts)
    if isinstance(r, Alt):
        return any(_nullable(part) for part in r.parts)
    return _nullable(r.inner)  # Plus


def _derive(r, sym):
    if isinstance(r, (Empty, Epsilon)):
        return Empty()
    if isinstance(r, Atom):
        return Epsilon() if r.name == sym else Empty()
    if isinstance(r, Seq):
        head, rest = r.parts[0], seq(*r.parts[1:])
        left = seq(_derive(head, sym), rest)
        if _nullable(head):
            return alt(left, _derive(rest, sym))
        return left
    if isinstance(r, Alt):
        return alt(*(_derive(part, sym) for part in r.parts))
    if isinstance(r, Star):
        return seq(_derive(r.inner, sym), r)
    if isinstance(r, Plus):
        return seq(_derive(r.inner, sym), Star(r.inner))
    return _derive(r.inner, sym)  # Opt


def lang_accepts(regex, word) -> bool:
    for sym in word:
        regex = _derive(regex, sym)
    return _nullable(regex)


def _all_words(alphabet, max_len):
    yield ()
    stack = [(sym,) for sym in alphabet]
    while stack:
        word = stack.pop()
        yield word
        if len(word) < max_len:
            stack.extend(word + (sym,) for sym in alphabet)


# ---------------------------------------------------------------------------
# Content-model automata


def test_automaton_b_then_optional_c():
    regex = seq(Atom("B"), Opt(Atom("C")))
    auto = compile_content_model(regex)
    expected_accepts = {w for w in _all_words(("B", "C"), 3) if lang_accepts(regex, w)}
    assert expected_accepts == {("B",), ("B", "C")}
    for word in _all_words(("B", "C"), 3):
        assert auto.accepts(word) == (word in expected_accepts)


def test_automaton_epsilon_accepts_only_empty():
    auto = compile_content_model(EPSILON)
    assert auto.accepts([])
    assert not auto.accepts(["A"])


def test_automaton_star():
    auto = compile_content_model(Star(Atom("A")))
    for n in range(6):
        assert auto.accepts(["A"] * n)
    assert not auto.accepts(["A", "B"])


def test_automaton_empty_language():
    auto = compile_content_model(Empty())
    assert not auto.accepts([])
    assert not auto.accepts(["A"])


_regex_strategy = st.recursive(
    st.sampled_from([Atom("A"), Atom("B"), Atom("C"), Epsilon(), Empty()]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: seq(*parts)),
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: alt(*parts)),
        inner.map(Star),
        inner.map(Plus),
        inner.map(Opt),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_regex_strategy)
def test_automaton_agrees_with_derivatives(regex):
    auto = compile_content_model(regex)
    for word in _all_words(("A", "B", "C"), 3):
        assert auto.accepts(word) == lang_accepts(regex, word), (regex, word)


# ---------------------------------------------------------------------------
# Validation


def test_validate_d0_unique_witness(g0, d0):
    interp = validate_tree(d0, g0)
    assert not isinstance(interp, Invalid)
    by_node = {nid: rule.name for nid, rule in interp.items()}
    # pre-order ids: 0 document, 1 doc, 2 a, 3 b, 4 "x", 5 c, 6 "y"
    assert by_node == {1: "Doc", 2: "A", 3: "B", 4: "TB", 5: "C", 6: "TC"}


def test_validate_rejects_missing_b(g0):
    bad = parse_xml("<doc><a><c>y</c></a></doc>")
    result = validate_tree(bad, g0)
    assert isinstance(result, Invalid)
    assert result.path == "/doc/a"


def test_validate_empty_doc_element(g0):
    interp = validate_tree(parse_xml("<doc/>"), g0)
    assert not isinstance(interp, Invalid)
    assert [r.name for r in interp.values()] == ["Doc"]


def test_validate_wrong_root(g0):
    result = validate_tree(parse_xml("<a><b>x</b></a>"), g0)
    assert isinstance(result, Invalid)


def test_anything_validates_against_any_grammar():
    g = any_grammar()
    for text in (
        "<doc><a><b>x</b><c>y</c></a></doc>",
        "<z/>",
        "<r>text<x><y/>more</x></r>",
    ):
        assert not isinstance(validate_tree(parse_xml(text), g), Invalid)


def test_validate_d0_under_any_grammar_maps_everything_to_x(d0):
    interp = validate_tree(d0, any_grammar())
    assert not isinstance(interp, Invalid)
    assert {rule.name for rule in interp.values()} == {"X"}
    assert len(interp) == 6


def test_interpretation_replays_through_automata(g0):
    # round-trip: each element's child names spell a word its automaton accepts
    from xmlprojector import GenConfig, generate_document
    from xmlprojector.doc import Element, TextNode

    for seed in range(40):
        doc = generate_document(g0, GenConfig(seed=seed, max_depth=8))
        interp = validate_tree(doc, g0)
        assert not isinstance(interp, Invalid)
        for node in doc.iter_nodes():
            if not isinstance(node, Element):
                continue
            rule = interp[node.nid]
            word = [
                interp[c.nid].name
                for c in node.children
                if isinstance(c, (Element, TextNode)) and c.nid in interp
            ]
            assert g0.automaton(rule).accepts(word)


def test_validate_mixed_content(mixed_grammar):
    doc = parse_xml("<article><title>t</title><para>a<em>x<strong>y</strong></em>b</para></article>")
    interp = validate_tree(doc, mixed_grammar)
    assert not isinstance(interp, Invalid)


def test_validate_deep_nesting_in_pre_order(recursive_grammar):
    levels = 10_000
    doc = parse_xml("<doc>" + "<section><title>t</title>" * levels + "</section>" * levels + "</doc>")
    interp = validate_tree(doc, recursive_grammar)
    assert len(interp) == 3 * levels + 1
    assert list(interp) == sorted(interp)  # witness rules are assigned in pre-order


def test_validate_ambiguous_grammar_any_witness():
    # two rules for the same tag; leftmost (lowest-sorting) witness wins
    g = Grammar(
        start=("F",),
        rules=(
            Rule.element("F", "f", alt(Atom("A"), Atom("B"))),
            Rule.element("A", "a", EPSILON),
            Rule.element("B", "a", EPSILON),
        ),
    )
    interp = validate_tree(parse_xml("<f><a/></f>"), g)
    assert not isinstance(interp, Invalid)
    assert sorted(r.name for r in interp.values()) == ["A", "F"]


_WILD_AND_EXACT = """\
start: A F
F -> f [ A* ]
A -> a [ ]
A -> _ [ ]
A -> Z [ ]
"""


@pytest.mark.parametrize(
    "xml,expected",
    [
        # `_` sorts after `Z` and before `a`: whichever rule sorts lowest wins
        ("<a/>", ["A -> _ [ ]"]),
        ("<Z/>", ["A -> Z [ ]"]),
        ("<f/>", ["A -> _ [ ]"]),
        ("<f><a/><Z/><q/></f>", ["F -> f [ A* ]", "A -> _ [ ]", "A -> Z [ ]", "A -> _ [ ]"]),
    ],
)
def test_validate_witness_mixes_wildcard_and_exact_rules(xml, expected):
    g = parse_grammar_text(_WILD_AND_EXACT)
    doc = parse_xml(xml)
    interp = validate_tree(doc, g)
    assert not isinstance(interp, Invalid)
    assert [rule_to_text(interp[n.nid]) for n in doc.iter_nodes() if n.nid in interp] == expected


# ---------------------------------------------------------------------------
# Streamability


def test_g0_is_streamable(g0):
    assert is_streamable(g0)


def test_any_grammar_is_streamable():
    assert is_streamable(any_grammar())
    # its name X has a text rule beside a wildcard element rule; each alone
    assert is_streamable(parse_grammar_text("start: F\nF -> f [ A* ]\nA -> String\nA -> a [ ]\n"))
    assert is_streamable(parse_grammar_text("start: F\nF -> f [ W* ]\nW -> _ [ ]\n"))


def test_tag_ambiguity_is_not_streamable():
    g = Grammar(
        start=("F",),
        rules=(
            Rule.element("F", "f", alt(Atom("A"), Atom("B"))),
            Rule.element("A", "a", EPSILON),
            Rule.element("B", "a", EPSILON),
        ),
    )
    assert not is_streamable(g)
    # at the root, between start names
    assert not is_streamable(parse_grammar_text("start: A B\nA -> a [ ]\nB -> a [ ]\n"))
    # inside a rule the start names never reach: every rule is checked
    unreachable = "start: F\nF -> f [ ]\nU -> u [ A | B ]\nA -> a [ ]\nB -> a [ ]\n"
    assert not is_streamable(parse_grammar_text(unreachable))


def test_two_rules_per_name_is_not_streamable():
    g = Grammar(
        start=("F",),
        rules=(
            Rule.element("F", "f", Star(Atom("A"))),
            Rule.element("A", "a", EPSILON),
            Rule.element("A", "a", Star(Atom("A"))),
        ),
    )
    assert not is_streamable(g)
    # even when the two rules' tags differ
    assert not is_streamable(parse_grammar_text("start: F\nF -> f [ A* ]\nA -> a [ ]\nA -> b [ ]\n"))


def test_wildcard_overlap_is_not_streamable():
    g = Grammar(
        start=("F",),
        rules=(
            Rule.element("F", "f", seq(Atom("A"), Atom("W"))),
            Rule.element("A", "a", EPSILON),
            Rule.element("W", "_", EPSILON),
        ),
    )
    assert not is_streamable(g)
    assert not is_streamable(parse_grammar_text("start: F W\nF -> f [ ]\nW -> _ [ ]\n"))
    assert not is_streamable(parse_grammar_text("start: F\nF -> f [ V W ]\nV -> _ [ ]\nW -> _ [ ]\n"))


def test_tag_tables(g0):
    # each child tag resolves, on the key masks, to the element rule its
    # parent's content allows, and an exact tag is linked on first meeting
    doc, a, b, c = (
        next(r for r in g0.rules if r.name == n and not r.is_text) for n in ("Doc", "A", "B", "C")
    )
    table = WalkTable(g0)
    top = table.child(table.root, "doc")
    assert top.rule == doc and table.root.by_tag == {"doc": top}
    assert table.child(table.root, "a") is None
    under_doc = table.child(top, "a")
    assert under_doc.rule == a and top.by_tag == {"a": under_doc}
    assert [table.child(under_doc, t).rule for t in ("b", "c")] == [b, c]
    assert sorted(under_doc.by_tag) == ["b", "c"]
    assert table.child(under_doc, "a") is None and table.child(under_doc, "d") is None
    # a wildcard rule takes every tag and is never linked per tag
    g = any_grammar()
    x = next(r for r in g.rules if not r.is_text)
    table = WalkTable(g)
    top = table.child(table.root, "anything")
    assert top.rule == x and table.child(top, "other") is top
    assert table.root.by_tag == {} and top.by_tag == {}
    # a tag under two start names resolves two ways: no table may be walked
    assert not is_streamable(parse_grammar_text("start: A B\nA -> a [ ]\nB -> a [ ]\n"))


def _ref_streamable(g: Grammar) -> bool:
    """Streamability by names: under the start names and each element
    rule's content, a name has at most one element rule, a wildcard rule
    stands alone, no two element rules share a tag, and an element rule's
    content mentions at most one name with a text rule."""

    def one_way(names) -> bool:
        rules = [r for name in names for r in g.rules_of(name) if not r.is_text]
        if len({r.name for r in rules}) < len(rules):
            return False
        if any(r.label.is_wildcard for r in rules):
            return len(rules) == 1
        return len({r.label.tag for r in rules}) == len(rules)

    def text_names(rule) -> int:
        return sum(any(r.is_text for r in g.rules_of(name)) for name in g.child_names(rule))

    return one_way(g.start) and all(
        r.is_text or (one_way(g.child_names(r)) and text_names(r) <= 1) for r in g.sorted_rules()
    )


def _random_small_grammar(rng: random.Random) -> Grammar:
    names = [f"N{i}" for i in range(rng.randint(1, 4))]

    def content():
        atoms = [Atom(rng.choice(names)) for _ in range(rng.randint(0, 3))]
        return rng.choice((seq, alt))(*atoms) if rng.random() < 0.7 else Star(alt(*atoms))

    rules = []
    for name in names:
        for _ in range(rng.randint(1, 2)):
            label = rng.choice(("a", "b", "_", None))
            rules.append(Rule.text(name) if label is None else Rule.element(name, label, content()))
    return Grammar(rng.sample(names, rng.randint(1, min(2, len(names)))), rules)


def test_streamability_matches_name_based_reference():
    rng = random.Random(12)
    verdicts = set()
    for _ in range(4000):
        g = _random_small_grammar(rng)
        verdict = is_streamable(g)
        assert verdict == _ref_streamable(g), grammar_to_text(g)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_two_text_names_in_one_content_not_streamable():
    g = Grammar(
        start=("F",),
        rules=(
            Rule.element("F", "f", seq(Atom("T1"), Atom("T2"))),
            Rule.text("T1"),
            Rule.text("T2"),
        ),
    )
    assert not is_streamable(g)


def test_text_children_are_the_text_rules_a_content_mentions(mixed_grammar):
    rules = {r.name: r for r in mixed_grammar.rules if not r.is_text}
    assert [r.name for r in mixed_grammar.text_children(rules["Para"])] == ["TPara"]
    assert mixed_grammar.text_children(rules["Article"]) == ()
    assert [r.name for r in mixed_grammar.text_children(rules["Em"])] == ["TEm"]


# ---------------------------------------------------------------------------
# Top-down validation on streamable grammars: validate_tree's fast path
# must return exactly what the general algorithm returns.

# Streamable, and text is a choice at some position: F's rule is not
# text-neutral.  In the last, whitespace consumed as T leads to a state
# that moves differently on a second T, which adjacent text nodes reach.
_TEXT_CHOICES = {
    "A-then-T": "start: F\nF -> f [ A T ]\nA -> a [ ]\nT -> String\n",
    "T-or-A": "start: F\nF -> f [ T | A ]\nA -> a [ ]\nT -> String\n",
    "TA-or-AT": "start: F\nF -> f [ T A | A T? ]\nA -> a [ T* ]\nT -> String\n",
    "T-run-or-A": "start: F\nF -> f [ (T T* | A)* ]\nA -> a [ ]\nT -> String\n",
}


def _differential_cases() -> dict[str, tuple[Grammar, list[str]]]:
    """Every streamable grammar of the golden validation cases (XMark among
    them), with their documents, and the text-choice grammars above."""
    from test_golden import _validation_cases

    cases = {name: case for name, case in _validation_cases().items() if is_streamable(case[0])}
    for name, text in _TEXT_CHOICES.items():
        cases[name] = (parse_grammar_text(text), [])
    return cases


def _indented(xml: str) -> str:
    """The document with newline-and-indent whitespace before every element
    and before each end tag that closes element children."""
    doc = parse_xml(xml)
    work = [(doc.root, 1)]
    while work:
        elem, depth = work.pop()
        kids: list = []
        for child in elem.children:
            if isinstance(child, Element):
                kids.append(TextNode("\n" + "  " * depth))
                work.append((child, depth + 1))
            kids.append(child)
        if len(kids) > len(elem.children):
            kids.append(TextNode("\n" + "  " * (depth - 1)))
        elem.children = kids
    return serialize(doc)


def _mutant(xml: str, rng: random.Random, tags: list[str]) -> Document:
    """The document with one child deleted, duplicated or swapped with its
    next sibling, one stray text node inserted (beside text, too, which
    leaves two adjacent text nodes), or one tag renamed."""
    doc = parse_xml(xml)
    elem = rng.choice([n for n in doc.iter_nodes() if isinstance(n, Element)])
    kids = elem.children
    kind = rng.choice(("delete", "duplicate", "swap", "text", "rename"))
    i = rng.randrange(len(kids)) if kids else 0
    if kind == "rename":
        elem.tag = rng.choice(tags)
    elif kind == "text" or not kids:
        kids.insert(rng.randrange(len(kids) + 1), TextNode(rng.choice((" ", "\n  ", "z"))))
    elif kind == "delete":
        del kids[i]
    elif kind == "duplicate":
        kids.insert(i, parse_xml(f"<w>{subtree_text(kids[i])}</w>").root.children[0])
    elif i + 1 < len(kids):
        kids[i], kids[i + 1] = kids[i + 1], kids[i]
    return doc.renumber()


def _differential_inputs(case: str) -> tuple[Grammar, list[Document]]:
    """A differential case's grammar with its documents and generated
    ones, each as is and indented, and twelve seeded mutants of each."""
    g, docs = _differential_cases()[case]
    rng = random.Random(case)
    tags = sorted({r.label.tag for r in g.rules if not r.is_text and r.label.tag} | {"zz"})
    generated = [generate_document(g, GenConfig(seed=s, max_depth=6)) for s in range(4)]
    docs = docs + [serialize(doc) for doc in generated]
    sources = docs + [_indented(xml) for xml in docs]
    variants = [parse_xml(xml) for xml in sources]
    variants += [_mutant(xml, rng, tags) for xml in sources for _ in range(12)]
    return g, variants


@pytest.mark.parametrize("case", sorted(_differential_cases()))
def test_top_down_validation_matches_general(case):
    g, variants = _differential_inputs(case)
    for doc in variants:
        got, want = validate_tree(doc, g), _validate_general(doc, g)
        assert got == want, serialize(doc)
        if not isinstance(want, Invalid):  # pre-order, text included
            assert list(got.items()) == list(want.items()), serialize(doc)


def test_text_choice_falls_back_to_the_general_path():
    # Whitespace before `a` can only be skipped under `A T`, and taking it
    # as T under `T | A` leaves no move for `a`.  Neither rule is
    # text-neutral, so both documents take the general path, which leaves
    # the whitespace unassigned.
    g = parse_grammar_text(_TEXT_CHOICES["A-then-T"])
    f = _rule(g, "F")
    assert not g.text_neutral(f)
    doc = parse_xml("<f> <a/>x</f>")  # 1 f, 2 " ", 3 a, 4 "x"
    expected = {1: f, 3: _rule(g, "A"), 4: _rule(g, "T")}
    assert validate_tree(doc, g) == _validate_general(doc, g) == expected
    g = parse_grammar_text(_TEXT_CHOICES["T-or-A"])
    f = _rule(g, "F")
    assert not g.text_neutral(f)
    doc = parse_xml("<f> <a/></f>")  # the whitespace stays unassigned
    assert validate_tree(doc, g) == _validate_general(doc, g) == {1: f, 3: _rule(g, "A")}


def test_text_neutral_rules(xmark_grammar, mixed_grammar):
    # DTD rules, where text occurs only as (#PCDATA | ...)*, and rules
    # without text always are
    for g in (xmark_grammar, mixed_grammar, any_grammar()):
        assert all(g.text_neutral(r) for r in g.rules if not r.is_text)
    # T-run-or-A: each state steps T, but the state after one T moves
    # differently on a second
    g = parse_grammar_text(_TEXT_CHOICES["T-run-or-A"])
    assert not g.text_neutral(_rule(g, "F")) and g.text_neutral(_rule(g, "A"))
    g = parse_grammar_text("start: F\nF -> f [ (T | A)* B? ]\nA -> a [ ]\nB -> b [ ]\nT -> String")
    assert not g.text_neutral(_rule(g, "F"))  # no T after B


def test_top_down_validation_peak_memory(tmp_path, xmark_grammar):
    docs = []
    for size in (20_000, 2_000_000):
        write_xmark_doc(tmp_path / "xmark.xml", size)
        docs.append(parse_xml((tmp_path / "xmark.xml").read_text(encoding="utf-8")))
    small, doc = docs
    validate_tree(small, xmark_grammar)  # fill the grammar's caches first
    _validate_general(small, xmark_grammar)
    peaks = []
    tracemalloc.start()
    try:
        for validate in (_validate_general, validate_tree):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = validate(doc, xmark_grammar)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert not isinstance(result, Invalid)
            del result
    finally:
        tracemalloc.stop()
    general, top_down = peaks
    assert top_down <= general, peaks


# ---------------------------------------------------------------------------
# Reachability


def _rule(g, name):
    (rule,) = [r for r in g.rules if r.name == name and not r.is_text] or [
        r for r in g.rules if r.name == name
    ]
    return rule


def test_reachable_from_b(g0):
    found = reachable_rules(g0, [_rule(g0, "B")])
    assert {r.name for r in found} == {"B", "TB"}


def test_reachable_from_start_is_everything(g0):
    assert reachable_rules(g0, [_rule(g0, "Doc")]) == g0.rules


def test_reachable_empty(g0):
    assert reachable_rules(g0, []) == frozenset()


def test_reachable_monotone_and_idempotent(g0, xmark_grammar):
    rng = random.Random(7)
    for g in (g0, xmark_grammar):
        rules = sorted(g.rules, key=Rule.sort_key)
        for _ in range(25):
            seed = frozenset(rng.sample(rules, rng.randint(0, min(4, len(rules)))))
            closed = reachable_rules(g, seed)
            assert seed <= closed
            assert reachable_rules(g, closed) == closed


# ---------------------------------------------------------------------------
# any_grammar shape and serialization


def test_any_grammar_exact_rules():
    g = any_grammar()
    assert g.start == {"X"}
    assert g.rules == {
        Rule.text("X"),
        Rule.element("X", Label(None), Star(Atom("X"))),
    }


def test_grammar_text_round_trip(g0, xmark_grammar, recursive_grammar, mixed_grammar):
    for g in (g0, xmark_grammar, recursive_grammar, mixed_grammar, any_grammar()):
        assert parse_grammar_text(grammar_to_text(g)) == g


@settings(max_examples=200, deadline=None)
@given(_regex_strategy)
def test_regex_text_round_trip(regex):
    assert parse_regex_text(regex_to_text(regex)) == regex


def test_groups_splice_only_a_trailing_group_of_their_kind():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert seq(a, seq(b, c)) == seq(a, b, c) == Seq((a, b, c))
    assert seq(seq(a, b), c) == Seq((Seq((a, b)), c))
    assert alt(a, alt(b, c)) == Alt((a, b, c))
    assert (seq(a), seq(), alt()) == (a, EPSILON, Empty())
    for text, printed in [
        ("(a,(b,c))", "a b c"),
        ("(a,b,c)", "a b c"),
        ("((a,b),c)", "(a b) c"),
        ("(a|(b|c))", "a | b | c"),
        ("((a|b)|c)", "(a | b) | c"),
    ]:
        regex = parse_regex_text(text.replace(",", " "))
        assert regex_to_text(regex) == printed
        assert parse_regex_text(printed) == regex
    assert parse_regex_text("a (b c)") == parse_regex_text("a b c")


def test_wide_groups_are_flat():
    names = [f"E{i}" for i in range(5_000)]
    regex = seq(*map(Atom, names))
    assert len(regex.parts) == len(names)
    rule = Rule.element("R", "r", regex)  # hashes the content
    assert rule == Rule.element("R", "r", seq(*map(Atom, names)))
    assert compile_content_model(regex).accepts(names)
    assert regex_to_text(alt(*map(Atom, names))) == " | ".join(names)


def test_rule_pickle_recomputes_cached_hash():
    rule = Rule.element("A", "a", seq(Star(Atom("B")), Atom("C")))
    data = pickle.dumps(rule)
    assert b"_hash" not in data  # a hash from another process would be stale
    assert pickle.loads(data) == rule and hash(pickle.loads(data)) == hash(rule)


def test_grammar_requires_declared_names():
    with pytest.raises(GrammarError):
        Grammar(start=("A",), rules=(Rule.element("A", "a", Atom("Missing")),))
    with pytest.raises(GrammarError):
        Grammar(start=("Nope",), rules=(Rule.text("T"),))


def test_names_in():
    assert names_in(seq(Atom("A"), Star(alt(Atom("B"), Atom("C"))))) == {"A", "B", "C"}


# ---------------------------------------------------------------------------
# The loop parser against the recursive-descent parser it replaced


def _recursive_parse_regex_text(text: str):
    """The recursive-descent parser ``parse_regex_text`` replaced: one call
    level per parenthesis, kept here as the reference."""
    tokens = _TOKEN_RE.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_alt():
        nonlocal pos
        parts = [parse_seq()]
        while peek() == "|":
            pos += 1
            parts.append(parse_seq())
        return alt(*parts)

    def parse_seq():
        parts = [parse_postfix()]
        while peek() not in (None, "|", ")"):
            parts.append(parse_postfix())
        return seq(*parts)

    def parse_postfix():
        nonlocal pos
        out = parse_atom()
        while peek() in ("*", "+", "?"):
            out = {"*": Star, "+": Plus, "?": Opt}[tokens[pos]](out)
            pos += 1
        return out

    def parse_atom():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise GrammarFormatError("unexpected end of content regex")
        pos += 1
        if tok == "(":
            inner = parse_alt()
            if peek() != ")":
                raise GrammarFormatError("missing ')' in content regex")
            pos += 1
            return inner
        if tok == "#eps":
            return EPSILON
        if tok == "#empty":
            return EMPTY
        if tok in (")", "|", "*", "+", "?"):
            raise GrammarFormatError(f"unexpected {tok!r} in content regex")
        return Atom(tok)

    if not tokens:
        return EPSILON
    out = parse_alt()
    if pos != len(tokens):
        raise GrammarFormatError(f"trailing tokens in content regex: {tokens[pos:]}")
    return out


def _parse_outcome(parse, text):
    try:
        return "value", parse(text)
    except GrammarFormatError as exc:
        return "error", str(exc)


_REGEX_TOKENS = ["(", ")", "|", "*", "+", "?", "a", "b", "#eps", "#empty", " ", " "]


@pytest.mark.parametrize(
    "text",
    [
        *("a |", "(a", "a)", "*a", "()", "a ( | b)", "", "  ", "((a) | b", "a b) c"),
        # groups that close on a trailing group of their own kind splice it
        *("(a (b c))", "(a | (b | c))", "((a b) c)*", "(a (b | c))", "((a))+ | #eps #empty?"),
    ],
)
def test_loop_parser_matches_recursive_parser_on_examples(text):
    assert _parse_outcome(parse_regex_text, text) == _parse_outcome(
        _recursive_parse_regex_text, text
    )


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(_REGEX_TOKENS), max_size=14).map("".join))
def test_loop_parser_matches_recursive_parser(text):
    # equal values, or the same GrammarFormatError message; adjacent name
    # tokens run together into longer names, as in a file
    assert _parse_outcome(parse_regex_text, text) == _parse_outcome(
        _recursive_parse_regex_text, text
    )


def test_deeply_nested_groups_parse_without_recursion():
    depth = 3_000
    names = [f"n{i}" for i in range(depth + 1)]
    # ((…((n0 n1) n2)…) n3000): each group is a two-part sequence
    text = "(" * depth + f"{names[0]} {names[1]})" + "".join(f" {n})" for n in names[2:])
    regex = parse_regex_text(text)
    # compared level by level: == on the value itself would recurse
    for name in reversed(names[2:]):
        assert isinstance(regex, Seq) and len(regex.parts) == 2
        regex, last = regex.parts
        assert last == Atom(name)
    assert regex == Seq((Atom(names[0]), Atom(names[1])))
    assert names_in(parse_regex_text(text)) == set(names)


def test_deeply_nested_rule_parses():
    # a rule hashes its name and label, not its content tree
    depth = 3_000
    names = [f"n{i}" for i in range(depth + 1)]
    text = "(" * depth + f"{names[0]} {names[1]})" + "".join(f" {n})" for n in names[2:])
    rule = parse_rule_text(f"R -> r [ {text} ]")
    assert rule.name == "R" and str(rule.label) == "r"
    assert hash(rule) == hash(Rule.element("R", "r", Atom("x")))
    assert rule in {rule} and rule != Rule.element("R", "r", Atom("x"))


# ---------------------------------------------------------------------------
# Rules read from text: the regex is checked and its names read at load,
# and parsed on first read of ``content``


_CHECK_TOKENS = [
    "(", ")", "|", "*", "+", "?", "a", "b", "c.d", "#eps", "#empty",
    " ", " ", "\t", "　", "  \t ", "[", "]",
]


def _unparsed(rule: Rule) -> bool:
    return rule._content is None


@settings(max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from(_CHECK_TOKENS), max_size=14).map("".join))
def test_regex_check_accepts_what_the_parser_accepts(text):
    names = _regex_names(text)
    try:
        regex = parse_regex_text(text)
    except GrammarFormatError:
        assert names is None
        return
    assert names is not None and len(names) == len(set(names))
    assert set(names) == names_in(regex)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_CHECK_TOKENS), max_size=14).map("".join))
def test_rule_read_from_text_acts_as_the_parsed_rule(text):
    line = f"R -> r [ {text} ]"
    try:
        eager = Rule.element("R", "r", parse_regex_text(text))
    except GrammarFormatError as exc:
        with pytest.raises(GrammarFormatError) as raised:
            parse_rule_text(line, 7)
        assert str(raised.value) == f"line 7: {exc}"
        return

    def read() -> Rule:  # a fresh, unparsed rule per use
        return parse_rule_text(line)

    assert _unparsed(read()) and set(read()._names) == names_in(eager.content)
    assert hash(read()) == hash(eager)
    assert read() == eager and eager == read()
    assert rule_to_text(read()) == rule_to_text(eager) and repr(read()) == repr(eager)
    assert pickle.loads(pickle.dumps(read())) == eager
    assert read().sort_key() == eager.sort_key()
    names = names_in(eager.content)
    if all(_NAME_RE.match(n) and n != "R" for n in names):
        children = [Rule.text(n) for n in names]
        rule = read()
        auto = Grammar(["R"], [rule, *children]).automaton(rule)
        expected = Grammar(["R"], [eager, *children]).automaton(eager)
        assert (auto.start_state, auto._accepting, auto._rows) == (
            expected.start_state, expected._accepting, expected._rows,
        )
    # the first read parses and stores the content; the next reads it back
    rule = read()
    assert rule.content == eager.content and not _unparsed(rule)
    assert rule.content is rule.content


def test_concurrent_first_reads_of_content_agree():
    # threads racing on a rule's first read each parse and store an equal
    # value; every reader sees the parsed content
    expected = parse_regex_text("(a | b)* c? (d e)+")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rule = parse_rule_text("R -> r [ (a | b)* c? (d e)+ ]")
            seen = []
            threads = [threading.Thread(target=lambda: seen.append(rule.content)) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [expected] * 8 and rule.content == expected
    finally:
        sys.setswitchinterval(old)


def _old_parse_rule_text(text: str, line: int | None = None) -> Rule:
    """``parse_rule_text`` as it was before rules kept their regex text:
    one pattern for name and body, and every regex parsed at load.  But a
    text rule's bad name is a ``GrammarFormatError`` on its line, as an
    element rule's is; it was a bare ``GrammarError``."""
    m = re.match(r"\s*(\S+)\s*->\s*(.*?)\s*\Z", text)
    if not m:
        raise GrammarFormatError(f"not a rule: {text!r}", line)
    name, body = m.group(1), m.group(2)
    if body == "String":
        try:
            return Rule.text(name)
        except GrammarError as exc:
            raise GrammarFormatError(str(exc), line) from None
    bm = re.match(r"(\S+)\s*\[(.*)\]\s*\Z", body, re.S)
    if not bm:
        raise GrammarFormatError(f"rule body must be `String` or `label [ regex ]`: {text!r}", line)
    label, regex_text = bm.group(1), bm.group(2).strip()
    try:
        content = parse_regex_text(regex_text) if regex_text else EPSILON
        return Rule.element(name, label, content)
    except (GrammarError, GrammarFormatError) as exc:
        raise GrammarFormatError(str(exc), line) from None


def _read_outcome(parse, text):
    try:
        return "rule", parse(text, 3)
    except (GrammarError, GrammarFormatError) as exc:
        return type(exc).__name__, str(exc)


_LINE_TOKENS = [
    "R", "r", "_", "1x", "->", "-", ">", "[", "]", "String", "a", "(", ")", "|", "*",
    " ", " ", "\t", "\n", "\u3000",
]


@pytest.mark.parametrize(
    "text",
    [
        "R -> r [ a ]", "  R->r[a]  ", "R -> String", "R -> String\n", "R->String \n\t",
        "R -> r [ a\n b ]", "R ->\n r [ ]", "A->B -> b [ ]", "A->b[x] -> c ]", "R -> r [ a ] ]",
        "R -> 1r [ (a ]", "1R -> 1r [ a ]", "1R -> r [ a ]", "1R -> String", "R -> r", "R ->",
    ],
)
def test_rule_lines_read_as_before_on_examples(text):
    assert _read_outcome(parse_rule_text, text) == _read_outcome(_old_parse_rule_text, text)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(_LINE_TOKENS), max_size=12).map("".join))
def test_rule_lines_read_as_before(text):
    # the same rule, or the same error type and message with its line
    assert _read_outcome(parse_rule_text, text) == _read_outcome(_old_parse_rule_text, text)


# ---------------------------------------------------------------------------
# Rule order


def _conftest_grammars():
    dtds = (G0_DTD, XMARK_DTD, RECURSIVE_DTD, MIXED_DTD, DEEP_DTD)
    return [parse_dtd(dtd) for dtd in dtds] + [any_grammar()]


def _random_regex(rng: random.Random, names: list[str], depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        return Atom(rng.choice(names)) if rng.random() < 0.9 else rng.choice([EPSILON, Empty()])
    parts = [_random_regex(rng, names, depth + 1) for _ in range(rng.randint(1, 3))]
    if roll < 0.6:
        return seq(*parts)
    if roll < 0.8:
        return alt(*parts)
    return rng.choice([Star, Plus, Opt])(parts[0])


def test_sorted_rules_equal_a_sort_on_the_whole_key():
    rng = random.Random(14)
    for _ in range(200):
        names = [f"N{i}" for i in range(rng.randint(1, 4))]
        rules = []
        for name in names:
            rules += [Rule.text(name), Rule.element(name, "_", _random_regex(rng, names))]
            for label in rng.sample(["a", "b", "c"], rng.randint(1, 3)):
                # several rules per name and label: their regex text decides
                rules += [
                    Rule.element(name, label, _random_regex(rng, names))
                    for _ in range(rng.randint(1, 4))
                ]
        g = Grammar([names[0]], rules)
        assert g.sorted_rules() == tuple(sorted(g.rules, key=Rule.sort_key))
    # two values that print alike tie on the whole key too, and both sorts
    # keep them in the rule set's iteration order
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    rules = [Rule.element("A", "a", Seq((a, Seq((b, c))))), Rule.element("A", "a", seq(a, b, c))]
    rules += [Rule.text(n) for n in "BC"]
    g = Grammar(["A"], rules)
    assert g.sorted_rules() == tuple(sorted(g.rules, key=Rule.sort_key))
    for g in _conftest_grammars():
        assert g.sorted_rules() == tuple(sorted(g.rules, key=Rule.sort_key))


def test_rules_of_follow_sorted_rules():
    for g in _conftest_grammars():
        for name in {rule.name for rule in g.rules}:
            assert g.rules_of(name) == tuple(r for r in g.sorted_rules() if r.name == name)
