import functools
import hashlib
import os
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

from xmlprojector import (
    GenConfig,
    Invalid,
    Projector,
    any_grammar,
    approximate_to_ell,
    check_soundness,
    enumerate_documents,
    eval_ell,
    eval_full,
    generate_document,
    identity_projector,
    infer_projector,
    parse_dtd,
    parse_query,
    parse_xml,
    serialize,
    validate_tree,
)
from xmlprojector import oracle, pruner
from xmlprojector.doc import Document, Element, TextNode
from xmlprojector.oracle import OracleError
from xmlprojector.pruner import prune_tree_with_origin

from conftest import DEEP_DTD, G0_DTD, MIXED_DTD, RECURSIVE_DTD, XMARK_DTD
from test_golden import _synthetic_dtd


def _ell(text):
    return approximate_to_ell(parse_query(text))


# node ids in D0: 0 document, 1 doc, 2 a, 3 b, 4 "x", 5 c, 6 "y"


def test_eval_ell_child_chain(d0):
    assert eval_ell(_ell("/doc/a/b"), d0) == [3]


def test_eval_ell_self_on_root(d0):
    assert eval_ell(_ell("/doc/self::doc"), d0) == [1]


def test_eval_ell_predicate_witness(d0):
    assert eval_ell(_ell("/doc/a[c]/b"), d0) == [3]
    without_c = parse_xml("<doc><a><b>x</b></a></doc>")
    assert eval_ell(_ell("/doc/a[c]/b"), without_c) == []


def test_eval_ell_upward_and_text(d0):
    assert eval_ell(_ell("//b/ancestor::a"), d0) == [2]
    assert eval_ell(_ell("//c/text()"), d0) == [6]
    assert eval_ell(_ell("//b/ancestor-or-self::node()"), d0) == [0, 1, 2, 3]


def test_eval_ell_union(d0):
    assert eval_ell(_ell("/doc/a/b | //c"), d0) == [3, 5]


def test_eval_full_positions(d0):
    # ids: 0 document, 1 doc, 2 a, 3 b, 4 "1", 5 a, 6 b, 7 "2", 8 c, 9 "q"
    two = parse_xml("<doc><a><b>1</b></a><a><b>2</b><c>q</c></a></doc>")
    assert eval_full(parse_query("/doc/a[position()=2]/b"), two) == {6}
    assert eval_full(parse_query("/doc/a[2]/b"), two) == {6}
    assert eval_full(parse_query("/doc/a[last()]/c"), two) == {8}
    assert eval_full(parse_query("/doc/a[1]/b"), two) == {3}


def test_eval_full_functions(d0):
    assert eval_full(parse_query("/doc/a[contains(c,'y')]/b"), d0) == {3}
    assert eval_full(parse_query("/doc/a[contains(c,'z')]/b"), d0) == set()
    assert eval_full(parse_query("/doc/a[not(c)]/b"), d0) == set()
    assert eval_full(parse_query("/doc/a[count(c)=1]/b"), d0) == {3}
    assert eval_full(parse_query("/doc/a[starts-with(b,'x')]/c"), d0) == {5}


def test_eval_full_comparisons(d0):
    assert eval_full(parse_query("/doc/a[b = 'x']/c"), d0) == {5}
    assert eval_full(parse_query("/doc/a[b != 'x']/c"), d0) == set()
    nums = parse_xml("<doc><a><b>3</b></a><a><b>10</b></a></doc>")
    assert eval_full(parse_query("/doc/a[b > 5]/b"), nums) == {6}
    assert eval_full(parse_query("/doc/a[b <= 3]/b"), nums) == {3}


def test_eval_full_attributes():
    doc = parse_xml('<doc><a id="1"><b>x</b></a><a><b>y</b></a></doc>')
    assert eval_full(parse_query("/doc/a[@id]/b"), doc) == {3}
    assert eval_full(parse_query("/doc/a/@id"), doc) == {("attr", 2, "id")}
    assert eval_full(parse_query("/doc/a[@id='1']/b"), doc) == {3}


def test_eval_full_sideways_axes():
    doc = parse_xml("<doc><a><b>x</b></a><z/><a><c>y</c></a></doc>")
    q = parse_query("//b/following::c")
    assert eval_full(q, doc) == {eval_full(parse_query("//c"), doc).pop()}
    assert eval_full(parse_query("//z/preceding-sibling::a/b"), doc) == {3}
    assert eval_full(parse_query("//z/following-sibling::a/c"), doc) == {7}


def test_eval_full_following_skips_comment_ids():
    # the comment inside <a> takes a node id, so the subtree spans past it
    doc = parse_xml("<r><a><!--c--><b/></a><d/></r>")
    assert eval_full(parse_query("//a/following::*"), doc) == eval_full(parse_query("//d"), doc)


def test_eval_full_rejects_unknown_function(d0):
    with pytest.raises(OracleError):
        eval_full(parse_query("/doc/a[mystery(b)]"), d0)


def _element(tag, *children):
    elem = Element(tag)
    elem.children.extend(children)
    return elem


_UPWARD_AND_SIDEWAYS = [
    "//b/parent::a",
    "//b/parent::*",
    "//b/ancestor::a",
    "//text()/ancestor::*",
    "//b/ancestor-or-self::*",
    "//b/following-sibling::c",
    "//c/preceding-sibling::b",
    "//b/following::b",
    "//text()/following::*",
    "//c/preceding::*",
    "/doc/a[2]/b/preceding::b",
]


def test_hand_built_tree_navigates_as_its_parsed_twin():
    """A tree built with the public constructors alone, no node linked
    to its parent, validates and answers upward and sideways axes as the
    parsed document with the same text does."""
    built = Document([_element("doc", _element("a", _element("b")))])
    parsed = parse_xml(serialize(built))
    g = parse_dtd("<!ELEMENT doc (a*)><!ELEMENT a EMPTY>")
    assert validate_tree(built, g) == validate_tree(parsed, g)
    assert validate_tree(built, g).path == "/doc/a/b"
    assert eval_ell(_ell("//b/ancestor::a"), built) == [2]
    assert eval_full(parse_query("//b/ancestor::a"), built) == {2}

    built = Document([_element(
        "doc", _element("a", _element("b"), _element("c", TextNode("x"))), _element("a", _element("b"))
    )])
    parsed = parse_xml(serialize(built))
    for text in _UPWARD_AND_SIDEWAYS:
        query = parse_query(text)
        assert eval_full(query, parsed), text
        assert eval_full(query, built) == eval_full(query, parsed), text
        assert eval_ell(_ell(text), built) == eval_ell(_ell(text), parsed), text


# ---------------------------------------------------------------------------
# Generation


def test_generated_documents_validate(g0, xmark_grammar, recursive_grammar, mixed_grammar):
    for g, depth in ((g0, 8), (xmark_grammar, 10), (recursive_grammar, 9), (mixed_grammar, 8)):
        for seed in range(60):
            doc = generate_document(g, GenConfig(seed=seed, max_depth=depth))
            assert not isinstance(validate_tree(doc, g), Invalid), (g, seed)


def test_generator_deterministic(g0):
    cfg = GenConfig(seed=123)
    assert serialize(generate_document(g0, cfg)) == serialize(generate_document(g0, cfg))


def test_generator_shortest_fallback(g0):
    doc = generate_document(g0, GenConfig(seed=0, max_depth=1))
    assert serialize(doc) == "<doc></doc>"


def test_generator_wildcard_grammar_terminates():
    g = any_grammar()
    for seed in range(30):
        doc = generate_document(g, GenConfig(seed=seed, max_depth=6))
        assert not isinstance(validate_tree(doc, g), Invalid)


def test_generator_reports_blocking_names():
    g = parse_dtd("<!ELEMENT a (a)>")
    with pytest.raises(OracleError, match="A"):
        generate_document(g, GenConfig(seed=0, max_depth=10))


def test_generator_rule_coverage(g0):
    # non-vacuous soundness runs: every rule shows up somewhere
    covered = set()
    for seed in range(200):
        doc = generate_document(g0, GenConfig(seed=seed, max_depth=8))
        interp = validate_tree(doc, g0)
        covered.update(interp.values())
        if covered == g0.rules:
            break
    assert covered == g0.rules


def test_enumeration_is_exhaustive_and_valid(g0):
    docs = list(enumerate_documents(g0, max_star_repeat=2))
    assert len(docs) == 157  # 1 + 12 + 12*12 over star bound 2
    texts = {serialize(d) for d in docs}
    assert len(texts) == 157
    for doc in docs[:40]:
        assert not isinstance(validate_tree(doc, g0), Invalid)


def test_enumeration_respects_depth():
    g = parse_dtd("<!ELEMENT s (s?)>")
    docs = list(enumerate_documents(g, max_depth=3))
    assert {serialize(d) for d in docs} == {"<s></s>", "<s><s></s></s>", "<s><s><s></s></s></s>"}


# sha256 of the first 300 documents' serializations, one a line, as the
# enumerator that built every tree list before its first document yielded
# them: the lazy enumerator must keep that order.
_ENUMERATION_ORDER = {
    "G0": (
        G0_DTD, {},
        "2fc3be72dc803cf8f9332e7cb57869c5b7925bbf90ce97f5b3c8f6a384e8c0e0",
    ),
    "recursive": (
        RECURSIVE_DTD, {"max_depth": 4},
        "86800f38051c0f5f322469bc04596f4be97eba297e0d401ea3b1b13b68f168b4",
    ),
    "synthetic0": (
        _synthetic_dtd(0)[0], {"max_star_repeat": 1, "max_depth": 4},
        "3cf20faafd946acfad717cd06f0b8b984ae534aebea7dbb4f8bb978006e456ca",
    ),
    "synthetic6": (
        _synthetic_dtd(6)[0], {"max_star_repeat": 1, "max_depth": 3},
        "d7667416f3118e6f5216ad88a2290b00469bc968599d993315cb123eebc340eb",
    ),
}


@pytest.mark.parametrize("name", sorted(_ENUMERATION_ORDER))
def test_enumeration_order_is_pinned(name):
    dtd, bounds, expected = _ENUMERATION_ORDER[name]
    docs = islice(enumerate_documents(parse_dtd(dtd), **bounds), 300)
    text = "".join(serialize(doc) + "\n" for doc in docs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


# Run in a child process whose address space is capped at 800 MB: the
# first documents of two synthetic DTDs whose full enumeration does not fit.
_FIRST_DOCUMENTS = """
import resource
from itertools import islice
from xmlprojector import enumerate_documents, parse_dtd
from test_golden import _synthetic_dtd
resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))
for seed in (6, 7):
    g = parse_dtd(_synthetic_dtd(seed)[0])
    print(seed, len(list(islice(enumerate_documents(g, max_star_repeat=1, max_depth=4), 100))))
"""


def test_enumeration_memory_follows_the_documents_taken():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    done = subprocess.run(
        [sys.executable, "-c", _FIRST_DOCUMENTS], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["6", "100", "7", "100"]


# ---------------------------------------------------------------------------
# check_soundness


def test_soundness_pass(g0):
    report = check_soundness(g0, ["/doc/a/b"], 100, GenConfig(seed=0, max_depth=8))
    assert report.passed
    assert report.lines() == ["PASS n=100"]


def test_soundness_fault_injection_fails(g0):
    full = infer_projector([_ell("/doc/a/b")], g0)
    a_rule = next(r for r in g0.rules if r.name == "A")
    broken = Projector(g0, full.kept - {a_rule})
    report = check_soundness(
        g0, ["/doc/a/b"], 60, GenConfig(seed=0, max_depth=8), projector=broken
    )
    assert not report.passed
    assert report.failures
    line = report.lines()[0]
    assert line.startswith("FAIL seed=") and "query=/doc/a/b" in line


def test_soundness_untyped_prunes_nothing():
    report = check_soundness(any_grammar(), ["//a/b"], 50, GenConfig(seed=0, max_depth=6))
    assert report.passed
    assert report.bytes_out == report.bytes_in


def test_soundness_catches_missing_text_rule(g0):
    # dropping the TB text rule changes the b subtree bytes
    full = infer_projector([_ell("/doc/a/b")], g0)
    tb = next(r for r in g0.rules if r.name == "TB")
    report = check_soundness(
        g0, ["/doc/a/b"], 60, GenConfig(seed=0, max_depth=8), projector=Projector(g0, full.kept - {tb})
    )
    assert not report.passed


def test_soundness_compares_stream_output(g0, monkeypatch):
    # prune_file is what the CLI runs: its output must equal prune_tree's
    assert check_soundness(g0, ["/doc/a/b"], 5, GenConfig(seed=0, max_depth=8)).passed
    monkeypatch.setattr(oracle, "prune_file", lambda src, pi, write: write("<doc></doc>"))
    report = check_soundness(g0, ["/doc/a/b"], 5, GenConfig(seed=0, max_depth=8))
    assert not report.passed
    assert {f.query for f in report.failures} == {"(prune_file)"}
    assert report.failures[0].detail == "prune_file output differs from prune_tree output"
    assert "query=(prune_file) " in report.lines()[0]


def _rename_root(copied):
    doc, origin = copied
    doc.root.tag = "z"
    return doc, origin


def _shift_ids(copied):
    doc, origin = copied
    doc.root.nid += 1
    return doc, origin


def _shift_origin(copied):
    doc, origin = copied
    origin[1] += 1
    return doc, origin


@pytest.mark.parametrize(
    "fault, detail",
    [
        (_rename_root, "prune_tree output differs from the copy by witness"),
        (_shift_ids, "prune_tree node ids differ from the copy by witness"),
        (_shift_origin, "prune_tree origin differs from the copy by witness"),
    ],
)
def test_soundness_compares_one_pass_copy(g0, monkeypatch, fault, detail):
    # prune_tree's one-pass copy must equal the copy by witness
    one_pass = pruner.walk_tree
    monkeypatch.setattr(pruner, "walk_tree", lambda doc, table: fault(one_pass(doc, table)))
    report = check_soundness(g0, ["/doc/a/b"], 5, GenConfig(seed=0, max_depth=8))
    assert not report.passed
    assert {f.query for f in report.failures} == {"(prune_tree)"}
    assert {f.detail for f in report.failures} == {detail}
    assert "query=(prune_tree) " in report.lines()[0]


def test_identity_pruning_is_noop_for_eval(g0):
    queries = ["/doc/a/b", "//c", "/doc/a[c]/b", "//b/ancestor::a", "//text()"]
    for seed in range(15):
        doc = generate_document(g0, GenConfig(seed=seed, max_depth=8))
        pruned, origin = prune_tree_with_origin(doc, identity_projector(g0))
        for text in queries:
            q = parse_query(text)
            got = {origin[r] if isinstance(r, int) else r for r in eval_full(q, pruned)}
            assert got == eval_full(q, doc)


def test_origin_mapping_is_order_preserving(g0):
    pi = infer_projector([_ell("/doc/a/b")], g0)
    for seed in range(20):
        doc = generate_document(g0, GenConfig(seed=seed, max_depth=8))
        pruned, origin = prune_tree_with_origin(doc, pi)
        items = sorted(origin.items())
        olds = [old for _, old in items]
        assert olds == sorted(olds)
        assert len(set(olds)) == len(olds)


# ---------------------------------------------------------------------------
# Minimum depths: the worklist against the whole-pass fixpoint it replaced


def _fixpoint_min_depths(g):
    """Relax every rule until a whole pass changes nothing: the reference
    ``oracle._min_depths`` replaced, quadratic on a chain of names."""
    cost = {name: float("inf") for name in {r.name for r in g.rules}}
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            depth = oracle._rule_depth(rule, cost)
            if depth < cost[rule.name]:
                cost[rule.name] = depth
                changed = True
    return cost


_CHAIN_LEVELS = 2_000


def _chain_grammar():
    return parse_dtd(
        "".join(f"<!ELEMENT c{i} (c{i + 1})>\n" for i in range(_CHAIN_LEVELS))
        + f"<!ELEMENT c{_CHAIN_LEVELS} (#PCDATA)>\n"
    )


@functools.cache
def _chain_reference():
    """The chain grammar, its reference depths and the seconds they took."""
    g = _chain_grammar()
    t0 = time.perf_counter()
    cost = _fixpoint_min_depths(g)
    return g, cost, time.perf_counter() - t0


def test_min_depths_match_the_fixpoint():
    grammars = [parse_dtd(dtd) for dtd in (G0_DTD, XMARK_DTD, RECURSIVE_DTD, MIXED_DTD, DEEP_DTD)]
    grammars += [parse_dtd(_synthetic_dtd(seed)[0]) for seed in range(40)]
    grammars += [any_grammar(), _chain_grammar()]
    # names that cannot finish keep an infinite cost
    grammars.append(parse_dtd("<!ELEMENT r (a | b)>\n<!ELEMENT a (a)>\n<!ELEMENT b EMPTY>\n"))
    for g in grammars:
        assert oracle._min_depths(g) == _fixpoint_min_depths(g)
    g, cost, _ = _chain_reference()
    assert oracle._min_depths(g) == cost
    assert cost["C0"] == _CHAIN_LEVELS + 1  # the last level's content can be empty


def test_min_depths_on_a_chain_are_not_quadratic():
    g, _, reference_seconds = _chain_reference()
    t0 = time.perf_counter()
    oracle._min_depths(g)
    assert time.perf_counter() - t0 < reference_seconds / 20
