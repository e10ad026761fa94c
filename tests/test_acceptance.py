"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The large-document criteria (4, 5, 8) synthesize their
inputs under the pytest temp root and reuse them across criteria.
"""

import time
import tracemalloc

import pytest

from xmlprojector import (
    GenConfig,
    Projector,
    any_grammar,
    approximate_to_ell,
    check_soundness,
    empty_projector,
    generate_document,
    identity_projector,
    infer_projector,
    minimality_check,
    parse_dtd,
    parse_query,
    prune_tree,
    serialize,
)
from xmlprojector.cli import main
from xmlprojector.doc import feed, new_parser
from xmlprojector.oracle import require_interpretation
from xmlprojector.pruner import PruneStats, prune_file, prune_tree_with_origin
from xmlprojector.xpath import Axis

from conftest import DEEP_DTD, G0_DTD, MIXED_DTD, RECURSIVE_DTD, XMARK_DTD, write_deep_doc, write_xmark_doc

# ---------------------------------------------------------------------------
# Query suites: ≥10 queries per grammar, jointly covering all seven axes
# and nested / and / or predicates.

G0_QUERIES = [
    "/doc/a/b",
    "/doc/a[c]/b",
    "//c",
    "/descendant::b",
    "//b/ancestor::a",
    "//c/parent::a/b",
    "/doc/a[b and c]",
    "/doc/a[b or c]/c",
    "//b[../c]/text()",
    "/doc/a/b/self::b",
    "//c/ancestor-or-self::a",
    "/doc/a[not(c)]/b",
    "/doc/a[position()=2]/b",
    "/doc/a[contains(c,'y')]/b",
]

ANY_QUERIES = [
    "//a/b",
    "/a",
    "//b[c]",
    "/descendant::c",
    "//c/parent::a",
    "//b/ancestor::a",
    "//a[b and c]",
    "//a[b or c]/b",
    "//text()",
    "//a/self::a",
    "//b/ancestor-or-self::node()",
    "//a[position()=1]",
    "//a[b[c]]",
]

XMARK_QUERIES = [
    "/site/people/person/name",
    "//person[profile]/name",
    "/site/regions/africa/item/description",
    "//item[incategory]/name",
    "//bidder/increase",
    "//person[address and creditcard]/emailaddress",
    "//increase/ancestor::open_auction",
    "//description//keyword",
    "//parlist/listitem/text",
    "//mail[from]/text",
    "/site/closed_auctions/closed_auction[price]/date",
    "//person[profile[interest]]/name",
    "//category/name | //category/description",
    "//item[contains(name,'1')]/location",
    "//person/@id",
    "//person[not(address)]/name",
    "//seller/parent::open_auction/initial",
    "//item/self::item[quantity]/name",
    "//increase/ancestor-or-self::*",
    "/site/descendant::price",
]

RECURSIVE_QUERIES = [
    "//section/title",
    "/doc/section/section/title",
    "//para",
    "//section[para]/title",
    "//title/parent::section/para",
    "//section[section[para]]/title",
    "//para/ancestor::section/title",
    "//section/self::section[title]/para",
    "/doc/section[section or para]/title",
    "//section[title and para]/para",
    "//para/ancestor-or-self::section",
    "/doc/descendant::para",
    "//section[not(section)]/para",
]

MIXED_QUERIES = [
    "/article/title",
    "//para/em",
    "//em/strong",
    "//para/text()",
    "//strong/ancestor::para",
    "//para[em and strong]",
    "//para[code]/em",
    "//em[strong]/text()",
    "//strong/parent::em",
    "//para[position()=1]/text()",
    "/article/para[not(code)]/em",
    "//em/self::em[strong]",
    "//strong/ancestor-or-self::*",
    "/article/descendant::strong",
]

SUITES = [
    ("G0", G0_DTD, G0_QUERIES, 8),
    ("any", None, ANY_QUERIES, 6),
    ("xmark", XMARK_DTD, XMARK_QUERIES, 9),
    ("recursive", RECURSIVE_DTD, RECURSIVE_QUERIES, 9),
    ("mixed", MIXED_DTD, MIXED_QUERIES, 8),
]


def _grammar(dtd):
    return any_grammar() if dtd is None else parse_dtd(dtd)


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def big_docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bigdocs")
    paths = {}
    for label, size in (("1MB", 1_000_000), ("10MB", 10_000_000), ("100MB", 100_000_000)):
        paths[label] = str(root / f"deep_{label}.xml")
        write_deep_doc(paths[label], size)
    return paths


def test_criterion_1_soundness_suites():
    """≥5 grammars x ≥10 queries, all seven axes, n=200, 100% pass."""
    started = time.perf_counter()
    for name, dtd, queries, depth in SUITES:
        grammar = _grammar(dtd)
        assert len(queries) >= 10
        axes = {
            step.axis
            for q in queries
            for branch in approximate_to_ell(parse_query(q)).branches
            for step in branch
        }
        assert axes == set(Axis), f"{name} suite misses axes {set(Axis) - axes}"
        report = check_soundness(
            grammar, queries, 200, GenConfig(seed=0, max_depth=depth), stop_on_first_failure=True
        )
        assert report.passed, f"{name} batch: {report.lines()}"
        for query in queries:
            single = check_soundness(
                grammar, [query], 30, GenConfig(seed=1000, max_depth=depth),
                stop_on_first_failure=True,
            )
            assert single.passed, f"{name} {query}: {single.lines()}"
    elapsed = time.perf_counter() - started
    _report("1 soundness suites", elapsed < 60.0, f"(5 suites, n=200 batch + n=30 each, {elapsed:.1f}s)")


def test_criterion_2_untyped_degeneracy():
    """Nonempty folds over the wildcard grammar keep every rule; pruning is
    then the byte-identical identity on 50 generated documents."""
    grammar = any_grammar()
    all_queries = [q for _, _, qs, _ in SUITES for q in qs if "@" not in q]
    checked = 0
    for text in all_queries:
        ell = approximate_to_ell(parse_query(text))
        pi = infer_projector([ell], grammar)
        from xmlprojector import infer_types

        if infer_types(ell, grammar) or any(not b for b in ell.branches):
            assert pi.kept == grammar.rules, text
            checked += 1
    assert checked >= 40
    identical = 0
    pi = infer_projector([approximate_to_ell(parse_query("//a/b"))], grammar)
    for seed in range(50):
        doc = generate_document(grammar, GenConfig(seed=seed, max_depth=6))
        before = serialize(doc)
        after = serialize(prune_tree(doc, pi))
        assert after == before, f"seed {seed}: pruning removed bytes"
        identical += 1
    _report("2 untyped degeneracy", True, f"({checked} queries keep all rules, {identical} identity prunes)")


def test_criterion_3_minimality_at_desk_scale():
    grammar = parse_dtd(G0_DTD)
    for text in ("/doc/a/b", "/doc/a[c]/b"):
        query = approximate_to_ell(parse_query(text))
        pi = infer_projector([query], grammar)
        report = minimality_check(pi, [query], 200)
        assert report.status == "minimal", f"{text}: {report}"
        assert report.docs_tested <= 200
        for extra in sorted(grammar.rules - pi.kept, key=lambda r: r.name):
            bloated = Projector(grammar, pi.kept | {extra})
            verdict = minimality_check(bloated, [query], 200)
            assert verdict.status == "witness", f"{text} + {extra.name}: {verdict}"
            assert verdict.witness == extra
    _report("3 minimality", True, "(both queries minimal; every injected rule is found)")


def test_criterion_4_one_pass_memory_bound(big_docs, tmp_path, capsys):
    """The `prune` subcommand, file in and file out, holds memory flat
    over 100x input size: reading, pruning and writing are all one pass."""
    dtd = tmp_path / "deep.dtd"
    dtd.write_text(DEEP_DTD)
    peaks = {}
    depths = {}
    for label, path in big_docs.items():
        out = tmp_path / f"pruned_{label}.xml"
        argv = ["prune", "--dtd", str(dtd), "--query", "/root/sec/meta",
                "-i", path, "-o", str(out), "--stats"]
        tracemalloc.start()
        code = main(argv)
        peaks[label] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > 0
        stats_line = capsys.readouterr().err.strip().splitlines()[-1]
        depths[label] = int(stats_line.rsplit("max_depth=", 1)[1])
        out.unlink()
    ratio = max(peaks.values()) / min(peaks.values())
    ok = ratio < 2.0 and all(d == 8 for d in depths.values())
    _report(
        "4 one-pass memory bound",
        ok,
        f"(peaks KiB {', '.join(f'{k}={v / 1024:.0f}' for k, v in peaks.items())}; "
        f"ratio {ratio:.2f} over 100x size; depth {depths['100MB']})",
    )


def test_one_pass_memory_bound_fused_path(big_docs, deep_grammar):
    """Criterion 4's bound on ``prune_file`` alone: pruning inside the
    expat callbacks, output handed to a writer once per chunk."""
    pi = infer_projector([approximate_to_ell(parse_query("/root/sec/meta"))], deep_grammar)
    peaks = {}
    depths = {}
    for label, path in big_docs.items():
        stats = PruneStats()
        written = [0]

        def write(text: str) -> None:
            written[0] += len(text)

        tracemalloc.start()
        with open(path, "rb") as src:
            prune_file(src, pi, write, stats=stats)
        peaks[label] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        depths[label] = stats.max_depth
        assert written[0] > 0
    ratio = max(peaks.values()) / min(peaks.values())
    ok = ratio < 2.0 and all(d == 8 for d in depths.values())
    _report(
        "4 one-pass memory bound, fused path",
        ok,
        f"(peaks KiB {', '.join(f'{k}={v / 1024:.0f}' for k, v in peaks.items())}; "
        f"ratio {ratio:.2f} over 100x size; depth {depths['100MB']})",
    )


def test_criterion_5_pruning_cost(big_docs, deep_grammar):
    """Pruning and printing cost at most 1.5x parsing with no-op Python
    handlers in every callback slot ``prune_file`` uses: the floor for
    any pruner that runs in the callbacks."""
    pi = infer_projector([approximate_to_ell(parse_query("/root/sec/meta"))], deep_grammar)
    path = big_docs["100MB"]

    def noop(*_):
        pass

    t0 = time.perf_counter()
    with open(path, "rb") as src:
        parser = new_parser()
        parser.StartElementHandler = parser.EndElementHandler = noop
        parser.CharacterDataHandler = parser.CommentHandler = noop
        parser.ProcessingInstructionHandler = noop
        for _ in feed(parser, src):
            pass
    parse_seconds = time.perf_counter() - t0

    written = [0]

    def write(text: str) -> None:
        written[0] += len(text)

    t0 = time.perf_counter()
    with open(path, "rb") as src:
        prune_file(src, pi, write)
    prune_seconds = time.perf_counter() - t0

    assert written[0] > 0
    ratio = prune_seconds / parse_seconds
    _report(
        "5 pruning cost",
        ratio <= 1.5,
        f"(no-op callbacks {parse_seconds:.1f}s, prune+serialize {prune_seconds:.1f}s, "
        f"ratio {ratio:.2f} <= 1.5)",
    )


def test_criterion_6_static_analysis_latency():
    t0 = time.perf_counter()
    grammar = parse_dtd(XMARK_DTD)
    queries = [approximate_to_ell(parse_query(q)) for q in XMARK_QUERIES]
    assert len(queries) == 20
    pi = infer_projector(queries, grammar)
    elapsed = time.perf_counter() - t0
    assert pi.kept
    _report("6 static-analysis latency", elapsed < 0.5, f"(DTD + 20 queries in {elapsed * 1000:.0f} ms)")


def test_criterion_7_cross_pruner_agreement():
    triples = 0
    deep_queries = ["/root/sec/meta", "//word", "/root/sec/blk//atom"]
    corpus = [
        (parse_dtd(G0_DTD), G0_QUERIES, 8),
        (parse_dtd(XMARK_DTD), XMARK_QUERIES[:10], 9),
        (parse_dtd(RECURSIVE_DTD), RECURSIVE_QUERIES, 9),
        (parse_dtd(MIXED_DTD), MIXED_QUERIES, 8),
        (parse_dtd(DEEP_DTD), deep_queries, 9),
    ]
    for grammar, queries, depth in corpus:
        projectors = [identity_projector(grammar), empty_projector(grammar)]
        projectors += [
            infer_projector([approximate_to_ell(parse_query(q))], grammar) for q in queries
        ]
        docs = []
        for seed in range(10):
            doc = generate_document(grammar, GenConfig(seed=seed, max_depth=depth))
            docs.append((doc, require_interpretation(doc, grammar), serialize(doc)))
        for pi in projectors:
            for doc, interp, text in docs:
                via_tree = serialize(prune_tree_with_origin(doc, pi, interp)[0])
                via_stream: list[str] = []
                prune_file(text, pi, via_stream.append)
                assert via_tree == "".join(via_stream)
                triples += 1
    _report("7 cross-pruner agreement", triples >= 500, f"({triples} byte-identical triples)")


def test_criterion_8_size_reduction(tmp_path):
    path = tmp_path / "xmark_10mb.xml"
    total = write_xmark_doc(path, 10_000_000)
    grammar = parse_dtd(XMARK_DTD)
    pi = infer_projector([approximate_to_ell(parse_query("//person/name"))], grammar)
    pruned_bytes = 0

    def write(text: str) -> None:
        nonlocal pruned_bytes
        pruned_bytes += len(text.encode("utf-8"))

    with open(path, "rb") as src:
        prune_file(src, pi, write)
    fraction = pruned_bytes / total
    _report(
        "8 size reduction",
        fraction < 0.70,
        f"(//person/name keeps {pruned_bytes / 1e6:.2f} of {total / 1e6:.1f} MB, {fraction:.1%} < 70%)",
    )
