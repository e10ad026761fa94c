import pytest

from xmlprojector import DtdError, Invalid, is_streamable, parse_dtd, parse_xml, validate_tree
from xmlprojector.grammar import EPSILON, Atom, Grammar, Opt, Rule, Star, alt, rule_to_text, seq

from conftest import D0_XML, G0_DTD, MIXED_DTD, RECURSIVE_DTD, XMARK_DTD


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

