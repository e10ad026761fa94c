import gc
import random
from xml.sax.saxutils import escape, quoteattr

import pytest

from xmlprojector import grammar, pruner
from xmlprojector import (
    GenConfig,
    Invalid,
    Projector,
    any_grammar,
    approximate_to_ell,
    empty_projector,
    generate_document,
    identity_projector,
    infer_projector,
    is_streamable,
    parse_dtd,
    parse_projector_text,
    parse_query,
    parse_xml,
    projector_to_text,
    serialize,
    validate_tree,
)
from xmlprojector.doc import (
    CALLBACK_TEXT,
    CommentNode,
    Document,
    Element,
    PINode,
    TextNode,
    XmlSyntaxError,
    feed,
    new_parser,
    parent_map,
    subtree_text,
)
from xmlprojector.grammar import (
    EPSILON,
    Atom,
    Grammar,
    Rule,
    Star,
    WalkTable,
    _validate_general,
    alt,
)
from xmlprojector.oracle import eval_full, results_match
from xmlprojector.pruner import (
    InvalidDocumentError,
    NotStreamableError,
    PruneStats,
    UnresolvableTagError,
    prune_file,
    prune_tree,
    prune_tree_with_origin,
)

from conftest import (
    D0_XML,
    DEEP_DTD,
    G0_DTD,
    MIXED_DTD,
    RECURSIVE_DTD,
    XMARK_DTD,
    write_deep_doc,
    write_xmark_doc,
)
from test_acceptance import XMARK_QUERIES
from test_golden import _validation_cases
from test_grammar import _differential_cases, _differential_inputs


def _ell(text):
    return approximate_to_ell(parse_query(text))


def _stream(xml, projector, **kw):
    out: list[str] = []
    prune_file(xml, projector, out.append, **kw)
    return "".join(out)


# ---------------------------------------------------------------------------
# Streaming pruner


def test_stream_drops_unqueried_subtrees(g0):
    pi = infer_projector([_ell("/doc/a/b")], g0)
    # oracle: prune the parsed tree, then serialize
    expected = serialize(prune_tree(parse_xml(D0_XML), pi))
    assert expected == "<doc><a><b>x</b></a></doc>"
    assert _stream(D0_XML, pi) == expected


def test_stream_identity_projector(g0):
    assert _stream(D0_XML, identity_projector(g0)) == D0_XML


def test_stream_keeps_predicate_witness_as_empty_shell(g0):
    pi = infer_projector([_ell("/doc/a[c]/b")], g0)
    assert _stream(D0_XML, pi) == "<doc><a><b>x</b><c></c></a></doc>"


def test_stream_empty_projector_emits_nothing(g0):
    assert _stream(D0_XML, empty_projector(g0)) == ""


def test_stream_stats(g0):
    pi = infer_projector([_ell("/doc/a/b")], g0)
    stats = PruneStats()
    _stream(D0_XML, pi, stats=stats)
    assert stats.elements_in == 4 and stats.elements_out == 3
    assert stats.text_bytes_in == 2 and stats.text_bytes_out == 1
    assert stats.max_depth == 3


def test_stream_stats_identity_preserves_counts(g0):
    stats = PruneStats()
    _stream(D0_XML, identity_projector(g0), stats=stats)
    assert stats.elements_in == stats.elements_out
    assert stats.text_bytes_in == stats.text_bytes_out


def test_stream_whitespace_in_element_content_dropped(g0):
    pi = identity_projector(g0)
    pretty = "<doc>\n  <a><b>x</b>\n  <c>y</c></a>\n</doc>"
    assert _stream(pretty, pi) == D0_XML


def test_stream_attributes_preserved():
    from conftest import XMARK_DTD
    from xmlprojector import parse_dtd

    g = parse_dtd(XMARK_DTD)
    pi = infer_projector([_ell("//person/name")], g)
    xml = (
        '<site><regions><africa></africa><asia></asia><europe></europe></regions>'
        "<categories></categories><people>"
        '<person id="p1"><name>n</name><emailaddress>e</emailaddress></person>'
        "</people><open_auctions></open_auctions><closed_auctions></closed_auctions></site>"
    )
    assert '<person id="p1"><name>n</name></person>' in _stream(xml, pi)


def test_stream_strict_policy_raises_with_path(g0):
    pi = identity_projector(g0)
    with pytest.raises(UnresolvableTagError) as err:
        _stream("<doc><a><z/><b>x</b></a></doc>", pi)
    assert err.value.path == "/doc/a/z"


def test_stream_drop_policy_prunes_unknown_subtree(g0):
    pi = identity_projector(g0)
    out = _stream("<doc><a><z><zz/></z><b>x</b></a></doc>", pi, policy="drop")
    assert out == "<doc><a><b>x</b></a></doc>"


def test_stream_cdata_normalized_and_escaped(g0):
    pi = identity_projector(g0)
    xml = "<doc><a><b><![CDATA[x & y <z>]]></b></a></doc>"
    assert _stream(xml, pi) == "<doc><a><b>x &amp; y &lt;z&gt;</b></a></doc>"


def test_stream_counts_text_bytes_not_chars(g0):
    stats = PruneStats()
    _stream("<doc><a><b>héllo</b></a></doc>", identity_projector(g0), stats=stats)
    assert stats.text_bytes_in == len("héllo".encode("utf-8")) == 6
    assert stats.text_bytes_out == 6


def test_stream_comments_and_pis_ride_along(g0):
    pi = infer_projector([_ell("/doc/a/b")], g0)
    xml = "<?pi data?><!--top--><doc><a><!--in--><b>x</b><c><!--gone-->y</c></a></doc>"
    out = _stream(xml, pi)
    assert out == "<?pi data?><!--top--><doc><a><!--in--><b>x</b></a></doc>"


def test_stream_requires_streamable_grammar():
    g = Grammar(
        start=("F",),
        rules=(
            Rule.element("F", "f", alt(Atom("A"), Atom("B"))),
            Rule.element("A", "a", EPSILON),
            Rule.element("B", "a", EPSILON),
        ),
    )
    with pytest.raises(NotStreamableError):
        _stream("<f><a/></f>", identity_projector(g))


def test_stream_rejects_unknown_policy(g0):
    with pytest.raises(ValueError):
        _stream(D0_XML, identity_projector(g0), policy="maybe")


def test_stream_compiles_nothing_it_does_not_use(tmp_path):
    # A grammar of its own: other tests fill the session grammar's caches.
    # The handlers resolve tags through the walk table and never ask for a
    # step plan, so no content automaton is compiled.
    g = parse_dtd(XMARK_DTD)
    pi = infer_projector([_ell(q) for q in XMARK_QUERIES[:8]], g)
    path = tmp_path / "xmark.xml"
    write_xmark_doc(path, 40_000)
    out: list[str] = []
    with open(path, "rb") as fh:
        prune_file(fh, pi, out.append)
    assert "<person" in "".join(out)
    assert g._automata == {} and g._plans == {}
    # A projector loaded from its text, as the CLI loads it, has no closure
    # that inference cached: the stream reads one-step masks only.
    loaded = parse_projector_text(projector_to_text(pi))
    again: list[str] = []
    with open(path, "rb") as fh:
        prune_file(fh, loaded, again.append)
    assert again == out
    h = loaded.grammar
    assert h._automata == {} and h._plans == {}
    assert h._below and all(m is None for m in h._below) and all(m is None for m in h._above)


def test_wildcard_children_are_never_linked_per_tag(monkeypatch):
    # any_grammar's one element rule takes every tag through its wildcard:
    # 1 000 distinct tags leave its walk table at one entry and no links
    g = any_grammar()
    pi = identity_projector(g)
    xml = "<r>" + "".join(f"<t{i}>x{i}<t{999 - i}/></t{i}>" for i in range(1000)) + "<!--c--></r>"
    tables: list[WalkTable] = []

    def table(*args, **kwargs):
        tables.append(WalkTable(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(pruner, "WalkTable", table)
    streamed: list[str] = []
    prune_file(xml, pi, streamed.append)
    expected = "<r>" + "".join(f"<t{i}>x{i}<t{999 - i}></t{999 - i}></t{i}>" for i in range(1000))
    expected += "<!--c--></r>"
    assert "".join(streamed) == serialize(prune_tree(parse_xml(xml), pi))
    assert "".join(streamed) == expected
    assert len(tables) == 2  # prune_file, prune_tree's one-pass copy
    for t in tables:
        assert [e.rule for e in t._entries.values()] == [g.sorted_rules()[1]]
        assert t.root.by_tag == {} and all(e.by_tag == {} for e in t._entries.values())


# ---------------------------------------------------------------------------
# In-memory pruner


def test_tree_prune_drops_unqueried_subtrees(g0, d0):
    pi = infer_projector([_ell("/doc/a/b")], g0)
    assert serialize(prune_tree(d0, pi)) == "<doc><a><b>x</b></a></doc>"


def test_tree_prune_empty_projector_gives_empty_document(g0, d0):
    assert serialize(prune_tree(d0, empty_projector(g0))) == ""


def test_tree_prune_invalid_document_reports_path(g0):
    with pytest.raises(InvalidDocumentError) as err:
        prune_tree(parse_xml("<doc><a><c>y</c></a></doc>"), identity_projector(g0))
    assert err.value.path == "/doc/a"


def test_tree_prune_handles_non_streamable_grammars():
    # same tag generated by two names; only the B-flavored subtree survives
    g = Grammar(
        start=("F",),
        rules=(
            Rule.element("F", "f", Star(alt(Atom("A"), Atom("B")))),
            Rule.element("A", "a", Star(Atom("TA"))),
            Rule.text("TA"),
            Rule.element("B", "a", Star(Atom("C"))),
            Rule.element("C", "c", EPSILON),
        ),
    )
    doc = parse_xml("<f><a>t</a><a><c/></a></f>")
    keep_b = Projector(g, frozenset(r for r in g.rules if r.name in ("F", "B", "C")))
    assert serialize(prune_tree(doc, keep_b)) == "<f><a><c></c></a></f>"


def test_empty_projector_on_any_grammar():
    g = any_grammar()
    doc = parse_xml("<r><x>t</x></r>")
    assert serialize(prune_tree(doc, empty_projector(g))) == ""


# ---------------------------------------------------------------------------
# Agreement between the two pruners


def test_pruners_agree_on_generated_documents(g0, recursive_grammar, mixed_grammar):
    queries = ["/doc/a/b", "//c", "/doc/a[c]/b", "//b/ancestor::a", "//title", "//para/text()", "//em"]
    for g in (g0, recursive_grammar, mixed_grammar):
        projectors = [identity_projector(g), empty_projector(g)]
        for text in queries:
            projectors.append(infer_projector([_ell(text)], g))
        for seed in range(12):
            doc = generate_document(g, GenConfig(seed=seed, max_depth=8))
            text = serialize(doc)
            for pi in projectors:
                assert serialize(prune_tree(doc, pi)) == _stream(text, pi)


# Whitespace-only text in mixed and in element-only content, beside
# comments and PIs: valid under MIXED_DTD.
_WHITESPACE_DOCS = [
    "<article><title>t</title><para> <em>x</em> y</para></article>",
    "<article>\n  <title>t</title>\n  <para> <em> x </em> <code/> </para>\n</article>",
    "<article><title> </title><para>\n</para><para></para></article>",
    "<article><title>t</title><para>a <!--c--> <em> </em>\t<?pi x?> </para></article>",
]


def test_tree_stats_equal_stream_stats(g0, xmark_grammar, recursive_grammar, mixed_grammar):
    queries = ["/doc/a/b", "//c", "//person/name", "//title", "//para/text()", "//em"]
    for g in (g0, xmark_grammar, recursive_grammar, mixed_grammar):
        projectors = [identity_projector(g), empty_projector(g)]
        projectors += [infer_projector([_ell(text)], g) for text in queries]
        docs = [serialize(generate_document(g, GenConfig(seed=s, max_depth=8))) for s in range(6)]
        if g is mixed_grammar:
            docs += _WHITESPACE_DOCS
        for xml in docs:
            for pi in projectors:
                via_tree, via_file = PruneStats(), PruneStats()
                prune_tree(parse_xml(xml), pi, stats=via_tree)
                prune_file(xml, pi, lambda _: None, stats=via_file)
                assert via_tree == via_file, (xml, pi)


def _dropped_text_cases(tmp_path, xmark_grammar, deep_grammar, mixed_grammar):
    """(projector, document) pairs where dropped subtrees hold text."""
    write_xmark_doc(tmp_path / "x.xml", 20_000)
    xmark = (tmp_path / "x.xml").read_bytes()
    write_deep_doc(tmp_path / "d.xml", 20_000)
    deep = (tmp_path / "d.xml").read_bytes()
    mixed = [xml.encode() for xml in _WHITESPACE_DOCS]
    mixed += [
        serialize(generate_document(mixed_grammar, GenConfig(seed=s, max_depth=6))).encode()
        for s in range(4)
    ]
    for g, docs, queries in (
        (xmark_grammar, [xmark], ["//person/name", "/site/regions//item/name"]),
        (deep_grammar, [deep], ["//sec/meta", "//par[line/word]/line"]),
        (mixed_grammar, mixed, ["//title", "//em", "//para/code"]),
    ):
        for text in queries:
            pi = infer_projector([_ell(text)], g)
            for data in docs:
                yield pi, data


def test_stream_without_stats_gives_identical_output(
    tmp_path, xmark_grammar, deep_grammar, mixed_grammar
):
    dropped_text = 0
    for pi, data in _dropped_text_cases(tmp_path, xmark_grammar, deep_grammar, mixed_grammar):
        outputs = set()
        for step in (len(data), 7):
            counted: list[str] = []
            stats = PruneStats()
            prune_file(_Trickle(data, step), pi, counted.append, stats=stats)
            plain: list[str] = []
            prune_file(_Trickle(data, step), pi, plain.append)
            assert "".join(plain) == "".join(counted), (pi.kept, data[:60])
            outputs.add("".join(plain))
        assert len(outputs) == 1, (pi.kept, data[:60])
        dropped_text += stats.text_bytes_in - stats.text_bytes_out
    assert dropped_text > 0


def test_whitespace_text_answer_survives_both_pruners(mixed_grammar):
    # `//para/text()` selects the leading " "; both pruners must keep it
    query = parse_query("//para/text()")
    pi = infer_projector([approximate_to_ell(query)], mixed_grammar)
    for xml in _WHITESPACE_DOCS:
        doc = parse_xml(xml)
        pruned, origin = prune_tree_with_origin(doc, pi)
        expected = eval_full(query, doc)
        assert results_match(expected, eval_full(query, pruned), doc, pruned, origin), xml
        streamed: list[str] = []
        prune_file(xml, pi, streamed.append)
        assert "".join(streamed) == serialize(pruned), xml
    doc = parse_xml(_WHITESPACE_DOCS[0])
    assert eval_full(query, doc) == {5, 8}
    assert serialize(prune_tree(doc, pi)) == "<article><para>  y</para></article>"


def test_deep_chain_grammar_streams():
    # element types referencing each other 1 000 deep: building the
    # dispatch follows no reference path
    levels = 1_000
    dtd = "".join(f"<!ELEMENT e{i} (e{i + 1}?)>" for i in range(levels)) + f"<!ELEMENT e{levels} EMPTY>"
    pi = identity_projector(parse_dtd(dtd))
    xml = "<e0><e1><e2></e2></e1></e0>"
    assert _stream(xml, pi) == xml


def test_stats_monotone_on_generated_documents(g0):
    pi = infer_projector([_ell("/doc/a/b")], g0)
    for seed in range(20):
        doc = generate_document(g0, GenConfig(seed=seed))
        stats = PruneStats()
        _stream(serialize(doc), pi, stats=stats)
        assert stats.elements_out <= stats.elements_in
        assert stats.text_bytes_out <= stats.text_bytes_in


def test_pruned_document_validates_against_erasure(g0):
    # names with no kept rule generate the empty forest: dropping their
    # rules from the grammar (and erasing dangling atoms) accepts the output
    pi = infer_projector([_ell("/doc/a/b")], g0)
    doc = generate_document(g0, GenConfig(seed=5))
    pruned = prune_tree(doc, pi)
    erased = Grammar(
        start=("Doc",),
        rules=(
            Rule.element("Doc", "doc", Star(Atom("A"))),
            Rule.element("A", "a", Atom("B")),  # C? erased: no kept C rule
            Rule.element("B", "b", Star(Atom("TB"))),
            Rule.text("TB"),
        ),
    )
    assert not isinstance(validate_tree(pruned, erased), Invalid)


def test_strict_streaming_is_not_validation(recursive_grammar):
    # Stray text under doc and a title after a para violate the DTD; the
    # streaming pruner checks tags only, the in-memory one validates.
    xml = "<doc>stray text<section><para>p</para><title>late</title></section></doc>"
    pi = infer_projector([_ell("//para")], recursive_grammar)
    assert _stream(xml, pi) == "<doc><section><para>p</para></section></doc>"
    with pytest.raises(InvalidDocumentError):
        prune_tree(parse_xml(xml), pi)


# ---------------------------------------------------------------------------
# The fused pruner (prune_file, inside the expat callbacks) on decorated
# documents: read in pieces, read whole, and against the in-memory pruner


class _Trickle:
    """A binary reader that hands out at most `step` bytes per read, so
    text and dropped subtrees split across parser chunks."""

    def __init__(self, data: bytes, step: int):
        self.data, self.step, self.pos = data, step, 0

    def read(self, n: int) -> bytes:
        chunk = self.data[self.pos : self.pos + min(n, self.step)]
        self.pos += len(chunk)
        return chunk


_ATTR_VALUES = ('say "hi"', "it's", "a<b & c>d", "tab\tline\nend", "ünï €", 'both \' and "')
_TEXTS = ("", "é", "€ & <tag>", "日本語", "]]")


def _decorated(doc, rng: random.Random, unknown: bool) -> bytes:
    """Serialize with what generated documents lack: doc-level and inner
    comments and PIs, CDATA, non-ASCII text, quoted attributes, element
    content whitespace and, if asked, an element no grammar rule names."""
    parts = ['<?xml version="1.0" encoding="utf-8"?>\n<!--head é--><?top a="1"?>']
    starts = 0
    stack = list(reversed(doc.children))  # nodes still to print and end tags
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            attrs = node.attributes
            if rng.random() < 0.3:
                attrs += (("note", rng.choice(_ATTR_VALUES)),)
            parts.append(f"<{node.tag}{''.join(f' {n}={quoteattr(v)}' for n, v in attrs)}>")
            roll = rng.random()
            if roll < 0.15:
                parts.append("<!-- inner é -->")
            elif roll < 0.25:
                parts.append("<?pi some data?>")
            elif roll < 0.3:
                parts.append("<?bare?>")
            elif roll < 0.4:
                parts.append("\n  ")
            starts += 1
            if unknown and starts == 3:
                parts.append('<zz k="v"><b>q</b><!--z--></zz>')
            stack.append(f"</{node.tag}>")
            stack.extend(reversed(node.children))
        elif isinstance(node, TextNode):
            content = node.content + rng.choice(_TEXTS)
            if rng.random() < 0.3 and "]]>" not in content:
                parts.append(f"<![CDATA[{content}]]>")
            else:
                parts.append(escape(content))
        elif isinstance(node, str):
            parts.append(node)
    parts.append("<!--tail--><?end here?>\n")
    return "".join(parts).encode("utf-8")


def _outcome(src, pi, policy) -> tuple:
    """``prune_file``'s output or error, with its stats unless the input
    is not well formed."""
    stats = PruneStats()
    out: list[str] = []
    try:
        prune_file(src, pi, out.append, policy=policy, stats=stats)
    except XmlSyntaxError as exc:
        return ("syntax", exc.line, exc.column), None
    except UnresolvableTagError as exc:
        return ("unresolvable", exc.path), stats
    return ("ok", "".join(out)), stats


_DIFF_CORPUS = {
    "G0": (G0_DTD, ["/doc/a/b", "//c"], 6),
    "xmark": (XMARK_DTD, ["//person/name", "//description//keyword", "/site/regions//item[incategory]/name"], 7),
    "recursive": (RECURSIVE_DTD, ["//section/title", "//para"], 6),
    "mixed": (MIXED_DTD, ["//para/em", "/article/title"], 6),
    "deep": (DEEP_DTD, ["/root/sec/meta", "//word"], 9),
}


@pytest.mark.parametrize("name", sorted(_DIFF_CORPUS))
def test_fused_matches_event_pruner(name):
    """``prune_file`` gives the same output, error and stats whether the
    input arrives in 1- or 7-byte reads or whole, and the in-memory
    pruner's output and stats wherever that accepts the document."""
    dtd, queries, depth = _DIFF_CORPUS[name]
    g = parse_dtd(dtd)
    projectors = [identity_projector(g), empty_projector(g)]
    projectors += [infer_projector([_ell(q)], g) for q in queries]
    rng = random.Random(name)
    inputs = []
    for seed in range(6):
        doc = generate_document(g, GenConfig(seed=seed, max_depth=depth, max_star_repeat=4))
        data = _decorated(doc, rng, unknown=seed in (1, 4))
        inputs.append(data)
        if seed == 3:
            inputs.append(data[: len(data) * 2 // 3])  # truncated mid-document
            inputs.append(data.replace(b"</", b"</x", 1))  # mismatched end tag
    seen = set()
    for data in inputs:
        try:
            doc = parse_xml(data)
        except XmlSyntaxError:
            doc = None
        for pi in projectors:
            # the in-memory pruner's output and stats, where it accepts the document
            tree = None
            if doc is not None:
                tree_stats = PruneStats()
                try:
                    tree = ("ok", serialize(prune_tree(doc, pi, stats=tree_stats))), tree_stats
                except InvalidDocumentError:
                    pass
            for policy in ("strict", "drop"):
                whole = _outcome(data, pi, policy)
                for step in (1, 7):
                    got = _outcome(_Trickle(data, step), pi, policy)
                    assert got == whole, (name, step, policy, data[:200])
                if tree is not None:
                    assert whole == tree, (name, policy, data[:200])
                seen.add(whole[0][0])
                if whole[1] is not None and whole[1].elements_out < whole[1].elements_in:
                    seen.add("dropped")
    assert seen == {"ok", "syntax", "unresolvable", "dropped"}


# ---------------------------------------------------------------------------
# Building trees: parse_xml and the pruned copy number nodes as they make them


_HAND_DOCS = (
    '<?xml version="1.0"?>\n<!--lead--><?top x="1"?>\n'
    '<doc id="d" note=\'a &amp; "b"\'><!--in--><a k="1">x<![CDATA[<y>]]>z &amp; é'
    '<?pi data?>tail</a><b/><a>日本<!--c-->語</a></doc>\n<!--trail--><?end?>\n',
    "<r>" + "é" * 9000 + "<![CDATA[" + "c" * 9000 + "]]></r>",  # text over expat's buffer
    # attribute values with quotes, markup, newline and tab; text with
    # `]]>` and markup characters; empty elements; PIs with and without data
    '<!--a--><?p?><?q d?><r a=\'"&lt;&amp;&#10;&#9; \' b="\'&quot;"><e/><f></f>'
    "x]]&gt;&amp;&lt;&gt;<![CDATA[ <&>]]> ünï € 😀<?s?><?t data more?><g/>"
    "</r><!--z--><?end?>",
    "<c>" * 10_000 + "x" + "</c>" * 10_000,  # deeper than Python's recursion limit
)


def _forms(data: bytes):
    """One input as text, as bytes, and trickled 1 to 7 bytes per read."""
    yield data.decode("utf-8")
    yield data
    for step in range(1, 8):
        yield _Trickle(data, step)


def _assert_preorder_ids(doc) -> list:
    nodes = list(doc.iter_nodes())
    assert [n.nid for n in nodes] == list(range(len(nodes)))
    doc.renumber()
    assert [n.nid for n in nodes] == list(range(len(nodes)))
    return nodes


def _building_inputs(name: str) -> list[bytes]:
    if name == "hand":
        return [text.encode("utf-8") for text in _HAND_DOCS]
    dtd, _, depth = _DIFF_CORPUS[name]
    g, rng = parse_dtd(dtd), random.Random(name)
    return [
        _decorated(generate_document(g, GenConfig(seed=seed, max_depth=depth)), rng, unknown=False)
        for seed in range(3)
    ]


_HANDLER_SLOTS = (
    "StartElementHandler",
    "EndElementHandler",
    "CharacterDataHandler",
    "CommentHandler",
    "ProcessingInstructionHandler",
)


def _callback_text(data: bytes) -> str:
    """The input printed straight from the parser's callbacks, as the
    streaming pruner prints what it keeps."""
    out: list[str] = []
    parser = new_parser()
    for slot, render in zip(_HANDLER_SLOTS, CALLBACK_TEXT):
        setattr(parser, slot, lambda *args, render=render: out.append(render(*args)))
    for _ in feed(parser, data):
        pass
    return "".join(out)


def _tree_text(nodes: list) -> str:
    """The nodes printed by a walk of their own: the reference for
    ``serialize`` and ``subtree_text``."""
    parts: list[str] = []
    stack = list(reversed(nodes))  # nodes still to print and end tags
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Element):
            attrs = "".join(f" {n}={quoteattr(v)}" for n, v in node.attributes)
            parts.append(f"<{node.tag}{attrs}>")
            stack.append(f"</{node.tag}>")
            stack.extend(reversed(node.children))
        elif isinstance(node, TextNode):
            parts.append(escape(node.content))
        elif isinstance(node, CommentNode):
            parts.append(f"<!--{node.content}-->")
        else:
            parts.append(f"<?{node.target} {node.data}?>" if node.data else f"<?{node.target}?>")
    return "".join(parts)


@pytest.mark.parametrize("name", ["hand", "G0", "xmark", "mixed"])
def test_parse_xml_numbers_nodes_as_it_builds(name):
    for data in _building_inputs(name):
        want = _callback_text(data)
        for src in _forms(data):
            doc = parse_xml(src)
            nodes = _assert_preorder_ids(doc)
            assert serialize(doc) == want, (name, src)
            assert serialize(doc) == _tree_text(doc.children)
            assert not any(isinstance(child, TextNode) for child in doc.children)
            for node in nodes[1:]:
                if isinstance(node, Element):
                    kinds = [type(child) for child in node.children]
                    assert (TextNode, TextNode) not in zip(kinds, kinds[1:]), (name, src)
        # the tree printer against the test's own, node by node; in the
        # 10 000-level chain only every 1000th node, as subtree sizes sum
        # to 50 million nodes there
        for node in nodes[1:] if len(nodes) < 10_000 else nodes[1::1000]:
            assert subtree_text(node) == _tree_text([node]), (name, node)


@pytest.mark.parametrize(
    "data, where",
    [
        (b"<doc>\n<a>x</a>", (2, 9)),  # truncated: the root never closes
        (b"<doc>\n<a>x</a", (2, 5)),  # truncated inside a tag
        (b"<doc>\n  <a></b></doc>", (2, 8)),  # mismatched end tag
    ],
)
def test_parse_xml_rejects_malformed_input(data, where):
    for src in _forms(data):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_xml(src)
        assert (exc.value.line, exc.value.column) == where


def test_text_input_is_unicode_whatever_encoding_it_declares():
    # A str is already decoded: its declaration names the encoding of the
    # bytes it came from, not of the str.  Bytes decode as declared.
    xml = '<?xml version="1.0" encoding="ISO-8859-1"?><r>é</r>'
    assert serialize(parse_xml(xml)) == "<r>é</r>"
    assert serialize(parse_xml(xml.encode("latin-1"))) == "<r>é</r>"
    stats = PruneStats()
    pi = identity_projector(parse_dtd("<!ELEMENT r (#PCDATA)>"))
    assert _stream(xml, pi, stats=stats) == "<r>é</r>"
    assert stats.text_bytes_in == len("é".encode("utf-8"))


def test_no_tree_waits_for_the_cyclic_collector(tmp_path):
    """Trees hold one link per edge, so reference counting frees every
    node the tree paths make: parsing, both kinds of copy, printing,
    validation and generation leave no node or document to the cyclic
    collector, and a 200 000-level tree is freed without recursion."""
    nodes = (Element, TextNode, CommentNode, PINode, Document)
    write_xmark_doc(tmp_path / "x.xml", 40_000)
    cases = []
    for name, extra in (("G0", []), ("xmark", [(tmp_path / "x.xml").read_bytes()])):
        dtd, queries, _ = _DIFF_CORPUS[name]
        g = parse_dtd(dtd)
        projectors = [identity_projector(g), infer_projector([_ell(q) for q in queries], g)]
        cases.append((g, projectors, _building_inputs(name) + extra))
    deep = parse_dtd("<!ELEMENT a (a?)>")
    deep_text = "<a>" * 200_000 + "</a>" * 200_000

    def run(with_deep):
        for g, projectors, inputs in cases:
            for data in inputs:
                doc = parse_xml(data)
                for pi in projectors:
                    serialize(prune_tree(doc, pi))
                    serialize(prune_tree_with_origin(doc, pi, _validate_general(doc, g))[0])
                validate_tree(doc, g)
            serialize(generate_document(g, GenConfig(seed=1, max_depth=8)))
        if with_deep:
            assert serialize(prune_tree(parse_xml(deep_text), identity_projector(deep))) == deep_text

    run(False)  # first calls fill the grammars' caches, some of them cyclic
    gc.collect()
    was_enabled, flags, before = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(True)
        gc.collect()
        left = [type(obj).__name__ for obj in gc.garbage[before:] if isinstance(obj, nodes)]
    finally:
        del gc.garbage[before:]
        gc.set_debug(flags)
        if was_enabled:
            gc.enable()
    assert left == []


@pytest.mark.parametrize("name", ["G0", "xmark", "mixed"])
def test_pruned_copy_numbers_clones_as_it_copies(name):
    dtd, queries, _ = _DIFF_CORPUS[name]
    g = parse_dtd(dtd)
    projectors = [identity_projector(g)] + [infer_projector([_ell(q)], g) for q in queries]
    for data in _building_inputs(name):
        doc = parse_xml(data)
        old = {node.nid: node for node in doc.iter_nodes()}
        old_parents = parent_map(doc)
        for pi in projectors:
            pruned, origin = prune_tree_with_origin(doc, pi)
            parents = parent_map(pruned)
            for node in _assert_preorder_ids(pruned)[1:]:
                if isinstance(node, (CommentNode, PINode)):
                    assert node.nid not in origin
                    continue
                source = old[origin[node.nid]]
                assert origin[parents[node].nid] == old_parents[source].nid
                if isinstance(node, TextNode):
                    assert subtree_text(node) == subtree_text(source), (name, node)
                else:  # children, and whitespace between them, may be pruned away
                    assert (node.tag, node.attributes) == (source.tag, source.attributes)


# ---------------------------------------------------------------------------
# The one-pass copy: validating and copying together on streamable grammars


def _commented(doc, rng: random.Random):
    """A copy of the document with a comment and a PI in random elements
    and a comment before the root."""
    doc = parse_xml(serialize(doc))
    elements = [n for n in doc.iter_nodes() if isinstance(n, Element)]
    for node in (CommentNode("c"), PINode("p", "d")):
        parent = rng.choice(elements)
        parent.children.insert(rng.randrange(len(parent.children) + 1), node)
    doc.children.insert(0, CommentNode("lead"))
    return doc.renumber()


@pytest.mark.parametrize("case", sorted(_differential_cases()))
def test_one_pass_copy_matches_witness_copy(case):
    g, variants = _differential_inputs(case)
    rng = random.Random(case)
    variants += [_commented(doc, rng) for doc in variants if doc.root is not None]
    variants.append(Document())
    tags = sorted(r.label.tag for r in g.rules if not r.is_text and r.label.tag) or ["zz"]
    rules = g.sorted_rules()
    query = _ell(f"//{tags[len(tags) // 2]}")
    projectors = [identity_projector(g), empty_projector(g), infer_projector([query], g)]
    projectors += [Projector(g, frozenset(r for r in rules if rng.random() < 0.6)) for _ in range(2)]
    outcomes = set()
    for doc in variants:
        witness = _validate_general(doc, g)
        for pi in projectors:
            if isinstance(witness, Invalid):
                with pytest.raises(InvalidDocumentError) as exc:
                    prune_tree_with_origin(doc, pi)
                assert (exc.value.path, exc.value.reason) == (witness.path, witness.reason)
                outcomes.add("invalid")
                continue
            got, got_origin = prune_tree_with_origin(doc, pi)
            want, want_origin = prune_tree_with_origin(doc, pi, witness)
            assert serialize(got) == serialize(want), (case, serialize(doc))
            assert [n.nid for n in got.iter_nodes()] == [n.nid for n in want.iter_nodes()]
            assert got_origin == want_origin
            outcomes.add("copied")
    assert outcomes == {"invalid", "copied"}


def test_one_pass_copy_gives_up_where_top_down_validation_does(monkeypatch):
    # validate_tree's top-down pass and the one-pass copy are one walk, so
    # under the identity projector the copy gives up on exactly the
    # documents validate_tree does: each then calls the general algorithm
    # once, and neither calls it where the walk decides.
    calls = []
    general = grammar._validate_general

    def counted(doc, g):
        calls.append(doc)
        return general(doc, g)

    monkeypatch.setattr(grammar, "_validate_general", counted)
    monkeypatch.setattr(pruner, "_validate_general", counted)
    inputs = [(g, [parse_xml(xml) for xml in docs]) for g, docs in _validation_cases().values()]
    inputs += [_differential_inputs(case) for case in sorted(_differential_cases())]
    gave_up = set()
    for g, docs in inputs:
        if not is_streamable(g):
            continue
        pi = identity_projector(g)
        for doc in docs:
            calls.clear()
            validate_tree(doc, g)
            by_validation = len(calls)
            calls.clear()
            try:
                prune_tree_with_origin(doc, pi)
            except InvalidDocumentError:
                pass
            assert len(calls) == by_validation, serialize(doc)
            gave_up.add(by_validation)
    assert gave_up == {0, 1}
