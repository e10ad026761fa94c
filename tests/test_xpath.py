import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmlprojector.xpath import (
    NODE_ANY,
    SELF_STEP,
    SUBTREE_STEP,
    Axis,
    BinaryOp,
    FullQuery,
    FullStep,
    FunctionCall,
    NodeAny,
    NumberLiteral,
    PathExists,
    PathExpr,
    PredAnd,
    PredOr,
    QueryEll,
    MAX_QUERY_NESTING,
    QuerySyntaxError,
    StepEll,
    StringLiteral,
    TagTest,
    TextTest,
    Wildcard,
    approximate_to_ell,
    ell_to_text,
    parse_query,
)


def _ell(text: str) -> QueryEll:
    return approximate_to_ell(parse_query(text))


def _branch(text: str):
    q = _ell(text)
    assert len(q.branches) == 1
    return q.branches[0]


# ---------------------------------------------------------------------------
# Parsing


def test_parse_child_chain():
    q = parse_query("/doc/a/b")
    (path,) = q.branches
    assert path.absolute
    assert [s.axis for s in path.steps] == ["child"] * 3
    assert [s.test for s in path.steps] == [TagTest("doc"), TagTest("a"), TagTest("b")]


def test_parse_double_slash_expansion():
    (path,) = parse_query("//c").branches
    assert path.steps[0] == FullStep("descendant-or-self", NODE_ANY)
    assert path.steps[1] == FullStep("child", TagTest("c"))


def test_parse_union_with_predicate():
    q = parse_query("/doc/a[c and b]/b | //c")
    first, second = q.branches
    (pred,) = first.steps[1].predicates
    assert isinstance(pred, BinaryOp) and pred.op == "and"
    assert isinstance(pred.left, PathExpr) and isinstance(pred.right, PathExpr)
    assert len(second.steps) == 2


def test_parse_abbreviations():
    (path,) = parse_query("./..//@id").branches
    axes = [s.axis for s in path.steps]
    assert axes == ["self", "parent", "descendant-or-self", "attribute"]


def test_parse_node_type_tests():
    (path,) = parse_query("/a/text()").branches
    assert path.steps[1].test == TextTest()
    (path,) = parse_query("/a/node()").branches
    assert path.steps[1].test == NodeAny()


def test_parse_function_and_comparison():
    (path,) = parse_query("/a[contains(b, 'x') and position() != 2]").branches
    (pred,) = path.steps[0].predicates
    assert pred.op == "and"
    assert isinstance(pred.left, FunctionCall)
    assert pred.right.op == "!="


# One or more inputs for each way parse_query rejects a query.
_BAD_QUERIES = [
    "/a/namespace::x",
    "/a/comment()",
    "/a[$v]",
    "/a[1 + 2]",
    "doc//",
    "/a[",
    "/a]b",
    "",
    "   ",
    "/a $",
    "/a/b#c",
    "/a[b c]",
    "/a[b",
    "/a[(b]",
    "/a/foo::b",
    "/a/ns:child::b",
    "/a/[b]",
    "/a/processing-instruction()",
    "/a/text(",
    "/a/node(x)",
    "/a[b=]",
    "/a[-1]",
    "/a[,]",
    "/a[]",
    "/a[f(b,]",
    "/a[f(b c)]",
    "/a[b]]",
    "/a | ",
    "| /a",
    "/a/@",
    "/a/::b",
    "/a/child::",
    "/a/'x'",
    "/a[b and]",
    "/a[b or or c]",
    "a:b:c",
]


def test_parse_errors():
    for bad in _BAD_QUERIES:
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("/a[b c]", 5),  # the unexpected token, not the one after it
        ("/a/foo::b", 3),  # the unknown axis name
        ("/a/namespace::b", 3),
        ("/a/comment()", 3),  # the unsupported node test's name
        ("/a/child::[x]", 10),  # the token where a node test should be
        ("/a $", 3),  # the bad character, not the whitespace before it
    ],
)
def test_parse_error_points_at_the_offending_token(text, offset):
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(text)
    assert info.value.position == offset


@pytest.mark.parametrize("text", ["//a[b|c]", "/doc[count(a|b) > 1]", "/doc[(a|b)]", "/a[f(b, c|d)]"])
def test_union_below_the_top_level_is_rejected_by_name(text):
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(text)
    assert info.value.position == text.index("|")
    assert str(info.value).startswith(
        "unsupported: union '|' inside a predicate, parentheses or arguments; "
        "unite whole paths at the top level (at offset "
    )


def test_prefixed_names_are_plain_tags():
    (path,) = parse_query("/ns:doc/ns:a").branches
    assert path.steps[0].test == TagTest("ns:doc")


def test_names_are_xml_names():
    (path,) = parse_query("/été/ça:x·y").branches
    assert [step.test for step in path.steps] == [TagTest("été"), TagTest("ça:x·y")]
    for bad in ("/1a", "/·a", "/a:1b"):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


# ---------------------------------------------------------------------------
# Query values are immutable values: their repr is read by golden files, and
# their equality and hashing by the approximation's deduplication

_QUERY_FIELDS = {
    TagTest: ["tag"], Wildcard: [], TextTest: [], NodeAny: [],
    FullStep: ["axis", "test", "predicates"], PathExpr: ["absolute", "steps"],
    BinaryOp: ["op", "left", "right"], FunctionCall: ["name", "args"],
    StringLiteral: ["value"], NumberLiteral: ["value"], FullQuery: ["branches"],
    PathExists: ["path"], PredAnd: ["left", "right"], PredOr: ["left", "right"],
    StepEll: ["axis", "test", "pred"], QueryEll: ["branches"],
}
_VALUE_QUERY = "/doc/*[contains(b, 'x') and 2.5 != position() or text()]//node() | //a[not(c) and d]/@id"


def _query_values() -> list:
    """Every distinct value inside one parse of _VALUE_QUERY and its
    approximation, each whole before its parts."""
    found: list = []

    def visit(value):
        if isinstance(value, tuple):
            for item in value:
                visit(item)
        elif type(value) in _QUERY_FIELDS and value not in found:
            found.append(value)
            for field in _QUERY_FIELDS[type(value)]:
                visit(getattr(value, field))

    q = parse_query(_VALUE_QUERY)
    visit(q)
    visit(approximate_to_ell(q))
    return found


def test_query_values_cover_every_class():
    assert {type(value) for value in _query_values()} == set(_QUERY_FIELDS)


def test_query_values_are_immutable():
    for value in _query_values():
        before = repr(value), hash(value)
        for attr in _QUERY_FIELDS[type(value)] + ["other"]:
            with pytest.raises(FrozenInstanceError):
                setattr(value, attr, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, attr)
        assert (repr(value), hash(value)) == before


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_query_values_pickle_under_every_protocol(protocol):
    for value in _query_values():
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value) and loaded == value
        assert hash(loaded) == hash(value) and repr(loaded) == repr(value)


def test_query_value_repr():
    assert repr(parse_query("/a[b = 1]")) == (
        "FullQuery(branches=(PathExpr(absolute=True, steps=(FullStep(axis='child', "
        "test=TagTest(tag='a'), predicates=(BinaryOp(op='=', left=PathExpr(absolute=False, "
        "steps=(FullStep(axis='child', test=TagTest(tag='b'), predicates=()),)), "
        "right=NumberLiteral(value=1.0)),)),)),))"
    )
    step = StepEll(Axis.CHILD, TagTest("a"))
    assert repr(step) == "StepEll(axis=<Axis.CHILD: 'child'>, test=TagTest(tag='a'), pred=None)"
    assert repr(StepEll(Axis.CHILD, TagTest("a"), PathExists((SELF_STEP,)))) == (
        "StepEll(axis=<Axis.CHILD: 'child'>, test=TagTest(tag='a'), pred=PathExists("
        "path=(StepEll(axis=<Axis.SELF: 'self'>, test=NodeAny(), pred=None),)))"
    )
    assert repr(Wildcard()) == "Wildcard()"


def test_query_value_constructors():
    assert FullStep("child", Wildcard()).predicates == ()
    assert StepEll(Axis.CHILD, Wildcard()).pred is None
    assert FullStep(axis="self", test=NODE_ANY, predicates=()) == FullStep("self", NodeAny())
    assert StepEll(axis=Axis.SELF, test=NODE_ANY, pred=None) == SELF_STEP
    with pytest.raises(QuerySyntaxError, match=r"^query has no paths$"):
        FullQuery(())
    with pytest.raises(QuerySyntaxError, match=r"^query has no branches$"):
        QueryEll(())


def test_query_values_of_other_kinds_differ():
    assert Wildcard() != NodeAny() and TextTest() != NodeAny() and Wildcard() == Wildcard()
    assert TagTest("a") != StringLiteral("a") and TagTest("a") != "a" and "a" != TagTest("a")
    assert TagTest("a").__eq__("a") is NotImplemented
    assert StringLiteral("1") != NumberLiteral(1.0) and NumberLiteral(1.0) == NumberLiteral(1)
    exists = PathExists((SELF_STEP,))
    assert PredAnd(exists, exists) != PredOr(exists, exists)
    assert StepEll(Axis.CHILD, Wildcard(), exists) != StepEll(Axis.CHILD, Wildcard())
    assert len({Wildcard(), Wildcard(), NodeAny(), TextTest(), TagTest("a"), TagTest("a")}) == 4


@pytest.mark.parametrize("text", [_VALUE_QUERY, "/a | //b[c]/..", "//x[count(y)=0]/following::z"])
def test_two_parses_are_equal_and_hash_alike(text):
    first, second = parse_query(text), parse_query(text)
    assert first == second and hash(first) == hash(second) and first is not second
    ell, again = approximate_to_ell(first), approximate_to_ell(second)
    assert ell == again and hash(ell) == hash(again)


# ---------------------------------------------------------------------------
# Approximation: per-rewrite behavior


def test_fragment_queries_pass_through():
    branch = _branch("/doc/a/b")
    assert branch == (
        StepEll(Axis.CHILD, TagTest("doc")),
        StepEll(Axis.CHILD, TagTest("a")),
        StepEll(Axis.CHILD, TagTest("b")),
    )


def test_positional_predicate_becomes_self_test():
    branch = _branch("/doc/a[position()=2]/b")
    assert branch[1].pred == PathExists((SELF_STEP,))
    assert _branch("/doc/a[2]/b")[1].pred == PathExists((SELF_STEP,))


def test_contains_keeps_argument_subtrees():
    branch = _branch("/doc/a[contains(c,'y')]/b")
    assert branch[1].pred == PathExists(
        (StepEll(Axis.CHILD, TagTest("c")), SUBTREE_STEP)
    )


def test_contains_with_empty_literal_never_filters():
    pred = _branch("/doc/a[contains(c,'')]/b")[1].pred
    # truth of contains(x, '') does not need c to exist: predicate must be
    # a non-filtering carrier, not a bare existence test
    assert isinstance(pred, PredAnd) or isinstance(pred, PredOr) or pred == PathExists((SUBTREE_STEP,)) or (
        isinstance(pred, PathExists) and pred.path[0] in (SELF_STEP, SUBTREE_STEP)
    )


def test_not_never_filters_but_keeps_shells():
    pred = _branch("/doc/a[not(c)]/b")[1].pred
    assert pred == PredOr(
        PathExists((SELF_STEP,)), PathExists((StepEll(Axis.CHILD, TagTest("c")),))
    )


def test_sibling_axes_rewrite_through_parent():
    branch = _branch("/a/b/following-sibling::c")
    assert branch[2:] == (
        StepEll(Axis.PARENT, NODE_ANY),
        StepEll(Axis.CHILD, TagTest("c")),
    )


def test_following_rewrites_through_ancestors():
    branch = _branch("/a/following::c")
    assert [s.axis for s in branch[1:]] == [
        Axis.ANCESTOR_OR_SELF,
        Axis.PARENT,
        Axis.CHILD,
        Axis.DESCENDANT_OR_SELF,
    ]
    assert branch[-1].test == TagTest("c")


def test_attribute_step_dropped():
    assert _branch("/doc/a/@id") == (
        StepEll(Axis.CHILD, TagTest("doc")),
        StepEll(Axis.CHILD, TagTest("a")),
    )


def test_attribute_step_followed_by_a_step_keeps_the_owner_subtree():
    # the owner is the result and the steps after @b go unread: its whole
    # subtree stays
    assert ell_to_text(_ell("//a/@b/..")) == (
        "/descendant-or-self::node()/child::a/descendant-or-self::node()"
    )


@pytest.mark.parametrize("text", ["//a/@b/..", "//a/@b/parent::*/c"])
def test_attribute_step_followed_by_a_step_is_sound(text):
    from xmlprojector import GenConfig, check_soundness, parse_dtd

    g = parse_dtd(
        "<!ELEMENT doc (a | c)*>\n<!ELEMENT a (c*, d?)>\n<!ATTLIST a b CDATA #IMPLIED>\n"
        "<!ELEMENT c (#PCDATA)>\n<!ELEMENT d (#PCDATA)>\n"
    )
    report = check_soundness(g, [text], 60, GenConfig(seed=3))
    assert report.passed, report.lines()


def test_attribute_predicate_is_harmless():
    branch = _branch("//person[@id]/name")
    assert branch[1].pred == PathExists((SELF_STEP,))


def test_absolute_predicate_becomes_extra_branch():
    q = _ell("/doc/a[/doc/c]/b")
    assert len(q.branches) == 2
    assert q.branches[0][1].pred == PathExists((SUBTREE_STEP,))
    assert q.branches[1] == (
        StepEll(Axis.CHILD, TagTest("doc")),
        StepEll(Axis.CHILD, TagTest("c")),
    )


def test_unknown_function_keeps_candidate_subtree():
    pred = _branch("//x[weird(y)]")[1].pred
    assert isinstance(pred, PredAnd)
    assert pred.left == PathExists((SUBTREE_STEP,))
    # and the path argument is carried along without filtering
    carrier = pred.right
    assert isinstance(carrier, PredOr)
    assert carrier.left == PathExists((SELF_STEP,))


def test_comparison_operands_keep_subtrees():
    pred = _branch("//open_auction[bidder/increase > 20]/current")[0:2][1].pred
    assert pred == PathExists(
        (
            StepEll(Axis.CHILD, TagTest("bidder")),
            StepEll(Axis.CHILD, TagTest("increase")),
            SUBTREE_STEP,
        )
    )


def test_union_branches_dedupe():
    q = _ell("/a/b | /a/b")
    assert len(q.branches) == 1


def test_nested_predicates_survive():
    pred = _branch("/doc/a[b[c] or not(b)]/b")[1].pred
    assert isinstance(pred, PredOr)
    left = pred.left
    assert isinstance(left, PathExists)
    assert left.path[0].pred == PathExists((StepEll(Axis.CHILD, TagTest("c")),))


def _nested_queries(levels: int) -> dict[str, str]:
    """Queries over RECURSIVE_DTD whose brackets nest `levels` deep."""
    return {
        "predicates": "//section" + "[section" * levels + "]" * levels,
        "parentheses": "//section[" + "(" * (levels - 1) + "title" + ")" * (levels - 1) + "]",
        "calls": "/doc[" + "not(" * (levels - 1) + "section" + ")" * (levels - 1) + "]",
        "absolute": "/doc" + "[/doc" * levels + "]" * levels,
    }


def _nested_call(depth, f):
    return f() if depth == 0 else _nested_call(depth - 1, f)


def test_query_nesting_bound_runs_end_to_end(recursive_grammar):
    # at the bound, every stage that recurses per level stays within the
    # recursion limit, even called from 200 frames deep
    from xmlprojector import infer_projector, parse_xml
    from xmlprojector.oracle import eval_full

    levels = 30
    doc = parse_xml(
        "<doc>" + "<section><title>t</title><para>p</para>" * levels
        + "</section>" * levels + "</doc>"
    )

    def run(text):
        q = parse_query(text)
        ell = approximate_to_ell(q)
        assert infer_projector([ell], recursive_grammar).mask
        assert eval_full(q, doc) <= eval_full(parse_query(ell_to_text(ell)), doc)

    for text in _nested_queries(MAX_QUERY_NESTING).values():
        _nested_call(200, lambda: run(text))


@pytest.mark.parametrize("name", sorted(_nested_queries(1)))
def test_query_values_at_the_nesting_bound(name):
    # the parsed query and its approximation print, compare, hash and
    # pickle from the top of the stack, and print from as deep as the
    # pipeline stages run above
    q = parse_query(_nested_queries(MAX_QUERY_NESTING)[name])
    for value in (q, approximate_to_ell(q)):
        text = repr(value)
        loaded = pickle.loads(pickle.dumps(value))
        assert loaded == value and hash(loaded) == hash(value) and repr(loaded) == text
        assert _nested_call(200, lambda: repr(value)) == text


def test_query_nesting_past_the_bound_is_a_syntax_error():
    for name, text in _nested_queries(MAX_QUERY_NESTING + 1).items():
        with pytest.raises(QuerySyntaxError) as info:
            parse_query(text)
        # the offset of the bracket one level too deep
        opening = [i for i, ch in enumerate(text) if ch in "[("][MAX_QUERY_NESTING]
        assert info.value.position == opening, name
        assert f"nest deeper than {MAX_QUERY_NESTING} levels" in str(info.value)


# ---------------------------------------------------------------------------
# Totality, idempotence, round-trips

_QUERY_CORPUS = [
    "/doc/a/b",
    "//c",
    "/doc/a[c]/b",
    "/doc/a[b and c]/b",
    "/doc/a[b or c]",
    "//b/ancestor::a",
    "//c/parent::a/b",
    "/doc/a/b/self::b",
    "//b[../c]/text()",
    "/descendant::b",
    "//c/ancestor-or-self::a",
    "/doc/a[not(c)]/b",
    "/doc/a[position()=2]/b",
    "/doc/a[contains(c,'y')]/b",
    "/a/b/following-sibling::c",
    "/a/preceding::c",
    "//person[@id]/name",
    "/doc/a[/doc/c]/b",
    "//x[count(y)=0]",
    "//item[payment = 'Cash']/name",
    "/site//item[contains(description//keyword, 'prov')]/name",
    "//a[b[c[text()]]]",
    "/doc/a[b][c][2]/b",
]


# Pieces that strings over the XPath token alphabet are built from; pieces
# run together, so names and punctuation also merge into longer tokens.
_QUERY_ALPHABET = [
    "/", "//", "[", "]", "(", ")", "::", "@", ".", "..", "|", ",",
    "=", "!=", "<", "*", "-",
    "child", "descendant", "descendant-or-self", "parent", "ancestor",
    "ancestor-or-self", "self", "following-sibling", "preceding-sibling",
    "following", "preceding", "attribute", "namespace",
    "or", "and", "not", "contains", "position", "text", "node", "comment",
    "a", "b", "c", "ns:a",
    "'x'", '""', "1", "2.5", ".5",
    "$", " ", "\t",
]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_QUERY_ALPHABET), max_size=16).map("".join))
def test_parse_query_is_total(text):
    # any string either parses or is a syntax error with an offset inside
    # the text; what parses approximates, and the approximation reads back
    # to itself through its canonical text
    try:
        q = parse_query(text)
    except QuerySyntaxError as exc:
        assert exc.position is not None and 0 <= exc.position <= len(text)
        return
    ell = approximate_to_ell(q)
    assert approximate_to_ell(parse_query(ell_to_text(ell))) == ell


@pytest.mark.parametrize("text", _QUERY_CORPUS)
def test_approximation_is_total(text):
    q = _ell(text)
    assert q.branches


@pytest.mark.parametrize("text", _QUERY_CORPUS)
def test_approximation_idempotent_through_text(text):
    once = _ell(text)
    again = approximate_to_ell(parse_query(ell_to_text(once)))
    assert again == once


def test_ell_to_text_examples():
    assert ell_to_text(_ell("/doc/a/b")) == "/child::doc/child::a/child::b"
    assert ell_to_text(_ell("/a | /b")) == "/child::a | /child::b"
    assert (
        ell_to_text(_ell("/doc/a[c and b]"))
        == "/child::doc/child::a[(child::c and child::b)]"
    )
    assert (
        ell_to_text(_ell("/doc/a[c or b]"))
        == "/child::doc/child::a[(child::c or child::b)]"
    )
