import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from xml.parsers.expat import model as _xm

from xmlprojector import DtdError, Invalid, is_streamable, parse_dtd, parse_xml, validate_tree
from xmlprojector.dtd import _collect_declarations
from xmlprojector.grammar import (
    EPSILON,
    Atom,
    ContentRegex,
    Grammar,
    Opt,
    Plus,
    Rule,
    Star,
    alt,
    grammar_to_text,
    names_in,
    rule_to_text,
    seq,
)

from conftest import D0_XML, DEEP_DTD, G0_DTD, MIXED_DTD, RECURSIVE_DTD, XMARK_DTD


def test_g0_import_exact():
    # hand transcription of the four declarations
    expected = Grammar(
        start=("Doc",),
        rules=(
            Rule.element("Doc", "doc", Star(Atom("A"))),
            Rule.element("A", "a", seq(Atom("B"), Opt(Atom("C")))),
            Rule.element("B", "b", Star(Atom("TB"))),
            Rule.text("TB"),
            Rule.element("C", "c", Star(Atom("TC"))),
            Rule.text("TC"),
        ),
    )
    assert parse_dtd(G0_DTD) == expected
    # cross-check: the running-example document validates
    assert not isinstance(validate_tree(parse_xml(D0_XML), parse_dtd(G0_DTD)), Invalid)


def test_empty_content():
    g = parse_dtd("<!ELEMENT e EMPTY>")
    assert g.rules == {Rule.element("E", "e", EPSILON)}
    assert g.start == {"E"}


def test_undeclared_reference_rejected():
    with pytest.raises(DtdError, match="undeclared.*x"):
        parse_dtd("<!ELEMENT a (x)>")


def test_duplicate_declaration_rejected():
    with pytest.raises(DtdError, match="duplicate.*a"):
        parse_dtd("<!ELEMENT a (b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b EMPTY>")


def test_syntax_error_carries_position():
    with pytest.raises(DtdError) as err:
        parse_dtd("<!ELEMENT a (b,>\n<!ELEMENT b EMPTY>")
    assert err.value.line == 1
    assert err.value.column is not None


def test_any_content_covers_all_declared_names():
    g = parse_dtd("<!ELEMENT a ANY>\n<!ELEMENT b EMPTY>")
    (rule,) = [r for r in g.rules_of("A") if not r.is_text]
    doc = parse_xml("<a>text<b></b><a><b/></a></a>")
    assert not isinstance(validate_tree(doc, g), Invalid)


def test_mixed_content_gets_fresh_text_name():
    g = parse_dtd("<!ELEMENT p (#PCDATA | b)*>\n<!ELEMENT b (#PCDATA)>")
    (p_rule,) = [r for r in g.rules_of("P") if not r.is_text]
    assert p_rule.content == Star(alt(Atom("TP"), Atom("B")))
    assert [r for r in g.rules_of("TP") if r.is_text]
    assert [r for r in g.rules_of("TB") if r.is_text]
    doc = parse_xml("<p>one<b>two</b>three</p>")
    assert not isinstance(validate_tree(doc, g), Invalid)


def test_per_element_text_names_are_distinct():
    g = parse_dtd(G0_DTD)
    assert [r for r in g.rules_of("TB") if r.is_text] != [
        r for r in g.rules_of("TC") if r.is_text
    ]


def test_root_override():
    g = parse_dtd(G0_DTD, root="a")
    assert g.start == {"A"}
    with pytest.raises(DtdError, match="not declared"):
        parse_dtd(G0_DTD, root="zzz")


def test_first_declared_element_is_start():
    g = parse_dtd("<!ELEMENT b EMPTY>\n<!ELEMENT a (b)>")
    assert g.start == {"B"}


def test_attlist_metadata_recorded():
    g = parse_dtd(
        "<!ELEMENT a (#PCDATA)>\n"
        "<!ATTLIST a id CDATA #IMPLIED class CDATA \"x\">\n"
        "<!ATTLIST a id CDATA #IMPLIED>"
    )
    assert g.attributes["a"] == ("id", "class")


def test_name_collision_gets_suffix():
    g = parse_dtd("<!ELEMENT item EMPTY>\n<!ELEMENT Item EMPTY>")
    names = {r.name for r in g.rules}
    assert names == {"Item", "Item_2"}


def test_text_declaration_stripped():
    g = parse_dtd('<?xml version="1.0" encoding="UTF-8"?>\n<!ELEMENT a EMPTY>')
    assert g.start == {"A"}


@pytest.mark.parametrize(
    "text, line, column",
    [
        ('<?xml version="1.0"?><!ELEMENT a (b>', 1, 36),
        ('<?xml version="1.0"\n  encoding="utf-8"?>\n<!ELEMENT a (b>', 3, 15),
        ('\n\n<?xml version="1.0"?>\n<!ELEMENT a (b>', 4, 15),
    ],
)
def test_syntax_error_position_counts_the_text_declaration(text, line, column):
    # the declaration is blanked, not dropped, so positions are the input's
    with pytest.raises(DtdError) as err:
        parse_dtd(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_unterminated_text_declaration_rejected():
    with pytest.raises(DtdError, match="unterminated text declaration"):
        parse_dtd('<?xml version="1.0" <!ELEMENT a EMPTY>')


def test_byte_order_mark_and_bytes_import_as_text():
    expected = grammar_to_text(parse_dtd(G0_DTD))
    for text in ("\ufeff" + G0_DTD, G0_DTD.encode("utf-8"), ("\ufeff" + G0_DTD).encode("utf-8")):
        g = parse_dtd(text)
        assert g == parse_dtd(G0_DTD) and grammar_to_text(g) == expected


def test_nested_groups():
    g = parse_dtd("<!ELEMENT g ((a | b)+, c?)>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>")
    (rule,) = [r for r in g.rules_of("G") if not r.is_text]
    for text, ok in [
        ("<g><a/></g>", True),
        ("<g><b/><a/><c/></g>", True),
        ("<g><c/></g>", False),
        ("<g></g>", False),
    ]:
        assert (not isinstance(validate_tree(parse_xml(text), g), Invalid)) is ok, text


@pytest.mark.parametrize("dtd", [G0_DTD, XMARK_DTD, RECURSIVE_DTD, MIXED_DTD])
def test_dtd_imports_are_streamable(dtd):
    # DTDs are local: one rule per tag, so streaming always applies
    assert is_streamable(parse_dtd(dtd))


def test_groups_keep_their_parentheses():
    decls = "".join(f"<!ELEMENT {t} EMPTY>\n" for t in "abc")

    def content(model):
        g = parse_dtd(f"<!ELEMENT r {model}>\n" + decls)
        (rule,) = [r for r in g.rules_of("R") if not r.is_text]
        return rule_to_text(rule)

    assert content("(a,(b,c))") == content("(a,b,c)") == "R -> r [ A B C ]"
    assert content("((a,b),c)") == "R -> r [ (A B) C ]"
    assert content("(a|(b|c))") == "R -> r [ A | B | C ]"
    assert content("((a|b)|c)") == "R -> r [ (A | B) | C ]"



def test_element_named_like_the_wildcard_is_rejected():
    # a rule labelled `_` would match every tag, and no grammar text can
    # write `_` as a tag
    dtd = "<!ELEMENT r (_, b)>\n<!ELEMENT _ EMPTY>\n<!ELEMENT b EMPTY>"
    with pytest.raises(DtdError) as err:
        parse_dtd(dtd)
    assert str(err.value) == (
        "element '_' cannot be imported: grammars write the wildcard label, "
        "which matches every tag, as `_`"
    )
    # other names holding `_` are tags like any other
    g = parse_dtd("<!ELEMENT r (_b, b_)>\n<!ELEMENT _b EMPTY>\n<!ELEMENT b_ EMPTY>")
    assert is_streamable(g)
    assert isinstance(validate_tree(parse_xml("<r><zzz/><b_/></r>"), g), Invalid)


def test_non_ascii_element_names_import():
    g = parse_dtd("<!ELEMENT été (#PCDATA | ça)*>\n<!ELEMENT ça EMPTY>")
    assert grammar_to_text(g) == (
        "start: Été\n"
        "TÉté -> String\n"
        "Ça -> ça [ ]\n"
        "Été -> été [ (TÉté | Ça)* ]\n"
    )
    assert not isinstance(validate_tree(parse_xml("<été>x<ça/>y</été>"), g), Invalid)


# ---------------------------------------------------------------------------
# The loop import against the recursive import it replaced


_REFERENCE_QUANT_WRAP = {
    _xm.XML_CQUANT_NONE: lambda r: r,
    _xm.XML_CQUANT_OPT: Opt,
    _xm.XML_CQUANT_REP: Star,
    _xm.XML_CQUANT_PLUS: Plus,
}


def _reference_referenced_tags(model: tuple) -> set[str]:
    mtype, _, name, children = model
    refs: set[str] = set()
    if mtype == _xm.XML_CTYPE_NAME:
        refs.add(name)
    for child in children:
        refs |= _reference_referenced_tags(child)
    return refs


def _recursive_parse_dtd(text: str, root: str | None = None) -> Grammar:
    """The import ``parse_dtd`` replaced: one recursive ``convert`` call per
    content particle and a second recursive walk for the referenced tags,
    kept here as the reference."""
    decls, attlists = _collect_declarations(text)
    if not decls:
        raise DtdError("no element declarations found")

    seen: dict[str, tuple] = {}
    order: list[str] = []
    duplicates: list[str] = []
    for tag, model in decls:
        if tag in seen:
            duplicates.append(tag)
        else:
            seen[tag] = model
            order.append(tag)
    if duplicates:
        raise DtdError("duplicate element declarations: " + ", ".join(sorted(set(duplicates))))

    undeclared = sorted(
        {ref for model in seen.values() for ref in _reference_referenced_tags(model)
         if ref not in seen}
    )
    if undeclared:
        raise DtdError("undeclared elements referenced: " + ", ".join(undeclared))

    used_names: set[str] = set()

    def fresh(base: str) -> str:
        name = base
        n = 1
        while name in used_names:
            n += 1
            name = f"{base}_{n}"
        used_names.add(name)
        return name

    name_of = {tag: fresh(tag[0].upper() + tag[1:]) for tag in order}

    rules: list[Rule] = []

    def convert(model: tuple) -> ContentRegex:
        mtype, quant, name, children = model
        wrap = _REFERENCE_QUANT_WRAP[quant]
        if mtype == _xm.XML_CTYPE_NAME:
            return wrap(Atom(name_of[name]))
        if mtype == _xm.XML_CTYPE_SEQ:
            return wrap(seq(*(convert(c) for c in children)))
        if mtype == _xm.XML_CTYPE_CHOICE:
            return wrap(alt(*(convert(c) for c in children)))
        raise DtdError("unexpected content particle in declaration")

    for tag in order:
        mtype, quant, _, children = seen[tag]
        if mtype == _xm.XML_CTYPE_EMPTY:
            content: ContentRegex = EPSILON
        elif mtype == _xm.XML_CTYPE_ANY:
            text_name = fresh("T" + name_of[tag])
            rules.append(Rule.text(text_name))
            content = Star(alt(Atom(text_name), *(Atom(name_of[t]) for t in order)))
        elif mtype == _xm.XML_CTYPE_MIXED:
            text_name = fresh("T" + name_of[tag])
            rules.append(Rule.text(text_name))
            content = Star(alt(Atom(text_name), *(convert(c) for c in children)))
        else:
            content = convert(seen[tag])
        rules.append(Rule.element(name_of[tag], tag, content))

    if root is not None:
        if root not in name_of:
            raise DtdError(f"requested root element {root!r} is not declared")
        start = name_of[root]
    else:
        start = name_of[order[0]]
    return Grammar((start,), rules, attlists)


def _import_outcome(parse, text, root=None):
    try:
        g = parse(text, root=root)
    except DtdError as exc:
        return "error", str(exc)
    return "grammar", g, grammar_to_text(g)


def _assert_imports_agree(text, root=None):
    outcome = _import_outcome(parse_dtd, text, root)
    assert outcome == _import_outcome(_recursive_parse_dtd, text, root)
    if outcome[0] == "grammar":
        # ``==`` compares contents, not the names a rule records for them
        for rule in outcome[1].rules:
            if rule.is_text:
                assert rule._names == ()
            else:
                assert len(rule._names) == len(set(rule._names))
                assert set(rule._names) == names_in(rule.content)


@pytest.mark.parametrize("dtd", [G0_DTD, XMARK_DTD, RECURSIVE_DTD, MIXED_DTD, DEEP_DTD])
def test_loop_import_matches_recursive_import_on_fixtures(dtd):
    _assert_imports_agree(dtd)
    _assert_imports_agree(dtd, root="title" if "title" in dtd else "zzz")


@pytest.mark.parametrize(
    "dtd",
    [
        "<!ELEMENT a (b)>\n<!ELEMENT a EMPTY>\n<!ELEMENT c (x, (y | a)*)>\n<!ELEMENT c ANY>",
        "<!ELEMENT a (x, (b | y)*)>\n<!ELEMENT b (#PCDATA | z)*>\n<!ELEMENT c (w?)>",
        "<!ELEMENT a (b, (c | (d, e+)?)*)>\n<!ELEMENT b ANY>\n<!ELEMENT c (#PCDATA)>"
        "\n<!ELEMENT d EMPTY>\n<!ELEMENT e (#PCDATA | c | d)*>",
        "<!ELEMENT item (Item)>\n<!ELEMENT Item (ITEM?)>\n<!ELEMENT ITEM (#PCDATA)>"
        "\n<!ELEMENT tItem ANY>\n<!ELEMENT TItem EMPTY>",
        "<!ATTLIST a id CDATA #IMPLIED>",
        "<!ELEMENT a (b,>",
    ],
)
def test_loop_import_matches_recursive_import_on_examples(dtd):
    _assert_imports_agree(dtd)
    _assert_imports_agree(dtd, root="b")


# tags with case collisions (`a`/`A`) and names that collide with text
# names (`tA` becomes `TA`, the text name of `a`), referenced but not always
# declared
_TAGS = ["a", "A", "b", "tA", "TB", "c.d", "e-f", ":g", "été"]


def _particles():
    leaf = st.tuples(st.sampled_from(_TAGS), st.sampled_from(["", "?", "*", "+"]))
    return st.recursive(
        leaf.map("".join),
        lambda inner: st.tuples(
            st.lists(inner, min_size=1, max_size=4),
            st.sampled_from([", ", " | "]),
            st.sampled_from(["", "?", "*", "+"]),
        ).map(lambda t: "(" + t[1].join(t[0]) + ")" + t[2]),
        max_leaves=12,
    )


def _content_spec():
    group = st.tuples(
        st.lists(_particles(), min_size=1, max_size=4),
        st.sampled_from([", ", " | "]),
        st.sampled_from(["", "?", "*", "+"]),
    ).map(lambda t: "(" + t[1].join(t[0]) + ")" + t[2])
    mixed = st.lists(st.sampled_from(_TAGS), max_size=3, unique=True).map(
        lambda tags: "(#PCDATA" + "".join(" | " + t for t in tags) + (")*" if tags else ")")
    )
    return st.one_of(group, mixed, st.just("EMPTY"), st.just("ANY"))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_TAGS), _content_spec()), min_size=1, max_size=7),
    st.one_of(st.none(), st.sampled_from(_TAGS)),
)
def test_loop_import_matches_recursive_import(decls, root):
    # the same grammar and grammar text, or the same DtdError: duplicate
    # declarations, undeclared references and an undeclared root included
    text = "".join(f"<!ELEMENT {tag} {spec}>\n" for tag, spec in decls)
    _assert_imports_agree(text, root)
    # every referenced tag declared, so that most examples import
    declared = {tag for tag, _ in decls}
    rest = "".join(f"<!ELEMENT {tag} EMPTY>\n" for tag in _TAGS if tag not in declared)
    _assert_imports_agree(text + rest, root)


def test_deeply_nested_group_imports_without_recursion():
    depth = 3_000
    # (a, (a, … (a, b)*…)*)*: one group per level
    group = "(a, " * depth + "b" + ")*" * depth
    g = parse_dtd(f"<!ELEMENT r {group}>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>")
    (rule,) = g.rules_of("R")
    assert set(rule._names) == {"A", "B"}
    expected = Atom("B")
    for _ in range(depth):
        expected = Star(seq(Atom("A"), expected))
    # == and hash walk both values over explicit stacks
    assert rule.content == expected and hash(rule.content) == hash(expected)
    assert rule == Rule.element("R", "r", expected)
    again = parse_dtd(f"<!ELEMENT r {group}>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>")
    assert again == g and again.rules_of("R")[0].content is not rule.content
    other = parse_dtd(f"<!ELEMENT r {group.replace('b', 'a')}>\n<!ELEMENT a EMPTY>")
    assert other.rules_of("R")[0].content != rule.content
    assert other.rules_of("R")[0] != rule


# ---------------------------------------------------------------------------
# The import pauses the cyclic collector: a grammar holds no reference cycle

_BAD_DTDS = [
    "",
    "<!ELEMENT a (b)>",
    "<!ELEMENT a EMPTY>\n<!ELEMENT a EMPTY>",
    "<!ELEMENT a (b",
    "<!ELEMENT _ EMPTY>",
]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_import_leaves_the_collector_as_it_found_it(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse_dtd(XMARK_DTD)
        assert gc.isenabled() is enabled
        for text in _BAD_DTDS:
            with pytest.raises(DtdError):
                parse_dtd(text)
            assert gc.isenabled() is enabled
        with pytest.raises(DtdError):
            parse_dtd(G0_DTD, root="nope")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_import_runs_no_collection_per_rule():
    """With a threshold that would start a collection every ten
    allocations, importing 400 declarations starts almost none."""
    n = 400
    text = f"<!ELEMENT r ({' | '.join(f'e{i}' for i in range(n))})*>\n"
    text += "".join(f"<!ELEMENT e{i} (#PCDATA | e{(i + 1) % n})*>\n" for i in range(n))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.callbacks.append(count)
    gc.set_threshold(10)
    try:
        g = parse_dtd(text)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    assert len(g.rules) == 2 * n + 1 and len(started) < 10
