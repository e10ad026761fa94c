"""Golden outputs of static inference and validation.

Each case folds a set of queries over one grammar and digests the
projector texts (one per query, then the union) and the inferred result
types; the validation cases digest the interpretation, or the Invalid
verdict, of a few documents per grammar.  The digests were recorded from
the rule-scanning implementation of inference and validation, so any
rewrite of those layers must reproduce them byte for byte; the ``wide``
case, whose `//` queries fold contexts of a hundred rules, was recorded
from the fold that stepped one context rule at a time.  The
streamability verdict of every grammar here was recorded from the
pairwise label-overlap check.  The generated-document digests were
recorded from the recursive document generator, so a generator that
draws its random numbers in another order shows here.  The query
digests cover the XPath front end alone: the parse tree and the
approximated fragment text of each query, or the message and offset of
its syntax error; they were recorded from the parser that matched one
token at a time and peeked at each, except ``errors``, re-recorded when
syntax errors moved to the start of the offending token.  After a
deliberate change of output, print the new tables with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import tempfile

import pytest

from xmlprojector import (
    Atom,
    GenConfig,
    Grammar,
    Invalid,
    Rule,
    any_grammar,
    approximate_to_ell,
    generate_document,
    infer_projector,
    infer_types,
    is_streamable,
    parse_dtd,
    parse_grammar_text,
    parse_query,
    parse_xml,
    projector_to_text,
    serialize,
    validate_tree,
)
from xmlprojector.grammar import EPSILON, Opt, Plus, Star, alt, names_in, rule_to_text, seq
from xmlprojector.xpath import MAX_QUERY_NESTING, QuerySyntaxError, ell_to_text

from conftest import DEEP_DTD, G0_DTD, MIXED_DTD, RECURSIVE_DTD, XMARK_DTD, write_xmark_doc
from test_acceptance import ANY_QUERIES, G0_QUERIES, MIXED_QUERIES, RECURSIVE_QUERIES, XMARK_QUERIES
from test_xpath import _BAD_QUERIES, _QUERY_CORPUS, _nested_queries

DEEP_QUERIES = [
    "/root/sec/meta",
    "//word",
    "/root/sec/blk//atom",
    "//par[line/word]/line",
    "//piece/ancestor::blk",
    "//atom/parent::*",
    "//sec[meta]//text()",
]

# ---------------------------------------------------------------------------
# Seeded synthetic DTDs: references to later elements may be required,
# references back (recursion) are always optional, so every element can
# finish and documents can be generated from every grammar.


def _synthetic_dtd(seed: int) -> tuple[str, dict[str, list[str]]]:
    rng = random.Random(seed)
    tags = [f"e{i}" for i in range(rng.randint(6, 28))]
    children: dict[str, list[str]] = {}
    decls: list[str] = []

    def particle(i: int, depth: int, used: list[str]) -> str:
        parts = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if depth < 2 and roll < 0.2:
                parts.append(particle(i, depth + 1, used) + rng.choice(["", "?", "*", "+"]))
            elif roll < 0.35 or i + 1 >= len(tags):
                back = rng.choice(tags[: i + 1])
                used.append(back)
                parts.append(back + rng.choice(["?", "*"]))
            else:
                fwd = rng.choice(tags[i + 1 :])
                used.append(fwd)
                parts.append(fwd + rng.choice(["", "?", "*", "+"]))
        sep = " | " if rng.random() < 0.35 else ", "
        return "(" + sep.join(parts) + ")"

    for i, tag in enumerate(tags):
        roll = rng.random()
        used: list[str] = []
        if i + 1 == len(tags) or roll < 0.2:
            body = "(#PCDATA)"
        elif roll < 0.35:
            used = rng.sample(tags, rng.randint(1, min(3, len(tags))))
            body = "(#PCDATA | " + " | ".join(used) + ")*"
        elif roll < 0.4:
            body = "EMPTY"
        elif roll < 0.42:
            used = list(tags)
            body = "ANY"
        else:
            body = particle(i, 0, used)
        children[tag] = sorted(set(used))
        decls.append(f"<!ELEMENT {tag} {body}>")
    return "\n".join(decls) + "\n", children


def _walk_queries(rng: random.Random, children: dict[str, list[str]], count: int) -> list[str]:
    """Queries along child edges of the DTD, with `//` skips, predicates,
    ancestor and parent steps."""
    tags = list(children)
    out = []
    for _ in range(count):
        if rng.random() < 0.7:
            tag = tags[0]
            text = f"/{tag}"
        else:
            tag = rng.choice(tags)
            text = f"//{tag}"
        walked = [tag]
        for _ in range(rng.randint(1, 5)):
            sep = "/"
            if rng.random() < 0.3:
                sep = "//"
                for _ in range(rng.randint(0, 2)):
                    if children[tag]:
                        tag = rng.choice(children[tag])
            if not children[tag]:
                break
            tag = rng.choice(children[tag])
            walked.append(tag)
            text += f"{sep}{tag}"
            if rng.random() < 0.25:
                pool = children[tag] or tags
                text += f"[{rng.choice(pool)}]"
        roll = rng.random()
        if roll < 0.2:
            text += f"/ancestor::{rng.choice(walked)}"
        elif roll < 0.35:
            text += "/parent::*"
        elif roll < 0.45:
            text += "//text()"
        out.append(text)
    # upward steps from anywhere: parents that the start names cannot reach
    # must not show up
    out += [f"//{rng.choice(tags)}/parent::*", f"//{rng.choice(tags)}/ancestor::*"]
    return out


# ---------------------------------------------------------------------------
# Seeded wide DTDs, shaped like the benchmark's wide schemas: the root is a
# starred choice of four records, an element mentions only the next 40
# names apart from optional back references (recursion), and about 12 % of
# the elements hold text, 5 % are EMPTY and 10 % have mixed content.  Not
# every element is reachable from the root.


def _wide_dtd(seed: int, n: int) -> tuple[str, dict[str, list[str]]]:
    rng = random.Random(seed)
    names = [f"e{i}" for i in range(n)]
    free = n - 5
    kinds = ["text"] * (free * 12 // 100) + ["empty"] * (free * 5 // 100)
    kinds += ["mixed"] * (free // 10)
    kinds += ["seq"] * (free - len(kinds))
    rng.shuffle(kinds)
    children: dict[str, list[str]] = {}
    decls: list[str] = []
    for i, (name, kind) in enumerate(zip(names, ["seq"] * 5 + kinds)):
        later = names[i + 1 : i + 41]
        used: list[str] = []
        if i == 0:
            used = names[1:5]
            body = "(" + " | ".join(used) + ")*"
        elif len(later) < 2 or kind == "text":
            body = "(#PCDATA)"
        elif kind == "empty":
            body = "EMPTY"
        elif kind == "mixed":
            used = rng.sample(later, rng.randint(1, min(3, len(later))))
            body = "(#PCDATA | " + " | ".join(used) + ")*"
        else:
            used = rng.sample(later, rng.randint(2, min(4, len(later))))
            parts = [c + rng.choice(("", "?", "*", "+")) for c in used]
            if rng.random() < 0.25:
                parts[:2] = [f"({used[0]} | {used[1]}){rng.choice(('', '?', '*'))}"]
            if i > 5 and rng.random() < 0.15:
                back = rng.choice(names[max(5, i - 30) : i])
                used.append(back)
                parts.append(back + rng.choice(("?", "*")))
            body = "(" + ", ".join(parts) + ")"
        children[name] = sorted(set(used))
        decls.append(f"<!ELEMENT {name} {body}>")
    return "\n".join(decls) + "\n", children


def _wide_queries(rng: random.Random, children: dict[str, list[str]]) -> list[str]:
    """One walk down from the root per query shape, the shapes of the
    benchmark's wide queries: a `//` skip of the record level or not, a
    child, `or` or positional predicate on the next-to-last step or none,
    and an `ancestor::` or `parent::*` tail or none; then `//` queries from
    anywhere, with predicates, upward tails and `text()` below them."""
    root = next(iter(children))
    out = []
    shapes = [(d, p, t) for d in (False, True) for p in ("", "child", "or", "position")
              for t in ("", "ancestor", "parent")]
    for k, (descendant, predicate, tail) in enumerate(shapes):
        for _ in range(50):  # walks until one is long enough
            path = [root]
            while len(path) < 5 + k % 3 and children[path[-1]]:
                path.append(rng.choice(children[path[-1]]))
            if len(path) == 5 + k % 3:
                break
        steps = [root, "/" + path[2]] + path[3:] if descendant else list(path)
        kept = path[:1] + path[2:] if descendant else path
        kids = children[kept[-2]]
        if predicate == "child" and kids:
            steps[-2] += f"[{rng.choice(kids)}]"
        elif predicate == "or" and len(kids) >= 2:
            steps[-2] += "[{} or {}]".format(*rng.sample(kids, 2))
        elif predicate == "position":
            steps[-2] += "[position()=1]"
        query = "/" + "/".join(steps)
        if tail == "ancestor":
            query += f"/ancestor::{kept[-3]}"
        elif tail == "parent":
            query += "/parent::*"
        out.append(query)
    inner = [name for name, kids in children.items() if kids]
    for _ in range(8):
        a = rng.choice(inner)
        b = rng.choice(children[a])
        out += [
            f"//{a}/{b}",
            f"//{a}[{b}]//text()",
            f"//{b}/parent::*",
            f"//{b}/ancestor::*",
            f"//{a}[{b} or {rng.choice(inner)}]/{b}/ancestor::{a}",
        ]
    return out


# ---------------------------------------------------------------------------
# Seeded hand-built grammars: several rules per name, wildcard labels and
# tags shared across names, none of which a DTD import produces.


def _synthetic_grammar(seed: int) -> tuple[Grammar, dict[str, list[str]]]:
    rng = random.Random(seed)
    names = [f"N{i}" for i in range(rng.randint(5, 10))]
    pool = ["a", "b", "c", "d"]

    def regex(i: int, depth: int):
        roll = rng.random()
        if depth < 2 and roll < 0.3:
            return rng.choice([seq, alt])(regex(i, depth + 1), regex(i, depth + 1))
        if i + 1 < len(names) and roll < 0.75:
            return rng.choice([lambda r: r, Opt, Star, Plus])(Atom(rng.choice(names[i + 1 :])))
        return rng.choice([Opt, Star])(Atom(rng.choice(names)))

    rules = []
    for i, name in enumerate(names):
        for _ in range(rng.randint(1, 2)):
            if i + 1 == len(names) or rng.random() < 0.15:
                rules.append(Rule.text(name))
            else:
                label = "_" if rng.random() < 0.2 else rng.choice(pool)
                content = EPSILON if rng.random() < 0.1 else regex(i, 0)
                rules.append(Rule.element(name, label, content))
    if all(r.is_text for r in rules if r.name == names[0]):
        rules.append(Rule.element(names[0], rng.choice(pool), Star(Atom(names[1]))))
    g = Grammar((names[0],), rules)
    # tag vocabulary per tag, for walk queries: which tags may appear below
    children: dict[str, set[str]] = {tag: set() for tag in pool}
    for rule in g.rules:
        if rule.is_text:
            continue
        below = {
            r.label.tag or t
            for n in sorted(names_in(rule.content))
            for r in g.rules_of(n)
            if not r.is_text
            for t in pool
            if r.label.matches(t)
        }
        for tag in pool if rule.label.is_wildcard else [rule.label.tag]:
            children[tag] |= below
    top = sorted({t for r in g.start_rules() if not r.is_text for t in pool if r.label.matches(t)})
    ordered = {tag: sorted(children[tag]) for tag in top + [t for t in pool if t not in top]}
    return g, ordered


# ---------------------------------------------------------------------------
# Case table


@functools.cache
def _inference_cases() -> dict[str, tuple[Grammar, list[str]]]:
    cases = {
        "G0": (parse_dtd(G0_DTD), G0_QUERIES),
        "any": (any_grammar(), ANY_QUERIES),
        "xmark": (parse_dtd(XMARK_DTD), XMARK_QUERIES),
        "recursive": (parse_dtd(RECURSIVE_DTD), RECURSIVE_QUERIES),
        "mixed": (parse_dtd(MIXED_DTD), MIXED_QUERIES),
        "deep": (parse_dtd(DEEP_DTD), DEEP_QUERIES),
    }
    for seed in range(20):
        dtd, children = _synthetic_dtd(seed)
        cases[f"dtd{seed}"] = (parse_dtd(dtd), _walk_queries(random.Random(seed), children, 6))
    for seed in range(4):
        g, children = _synthetic_grammar(100 + seed)
        cases[f"rtg{seed}"] = (g, _walk_queries(random.Random(seed), children, 6))
    dtd, children = _wide_dtd(0, 120)
    cases["wide"] = (parse_dtd(dtd), _wide_queries(random.Random(0), children))
    return cases


_AMBIGUOUS = """\
start: F
F -> f [ (A | B | W)* C? ]
A -> a [ ]
B -> a [ ]
W -> _ [ T? ]
W -> b [ T? ]
C -> _ [ T ]
T -> String
"""


# No text rule at all, so stray text is reported as text, not as its parent.
_TEXTLESS = """\
start: R
R -> r [ (R | E)* ]
E -> e [ ]
"""


def _xmark_text_doc() -> str:
    """A text-heavy XMark document: mixed-content descriptions dominate."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "xmark.xml")
        write_xmark_doc(path, 12_000)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


@functools.cache
def _validation_cases() -> dict[str, tuple[Grammar, list[str]]]:
    cases = {}
    for name, dtd in (
        ("G0", G0_DTD),
        ("xmark", XMARK_DTD),
        ("recursive", RECURSIVE_DTD),
        ("mixed", MIXED_DTD),
        ("dtd3", _synthetic_dtd(3)[0]),
        ("dtd7", _synthetic_dtd(7)[0]),
    ):
        g = parse_dtd(dtd)
        docs = [serialize(generate_document(g, GenConfig(seed=s, max_depth=7))) for s in range(3)]
        cases[name] = (g, docs)
    g0_docs = cases["G0"][1] + ["<doc><a><c>y</c></a></doc>", "<doc><a><b>x</b><b/></a></doc>"]
    cases["G0"] = (cases["G0"][0], g0_docs)
    cases["any"] = (any_grammar(), ["<a>x<b><c/>y</b><!--c--><d/></a>"])
    cases["ambiguous"] = (
        parse_grammar_text(_AMBIGUOUS),
        [
            "<f><a/><b/><z>t</z><a/></f>",
            "<f><b>t</b><q/></f>",
            "<f><a/><q>t</q></f>",
            "<f><a>t</a></f>",
        ],
    )
    g = _synthetic_grammar(101)[0]
    cases["rtg1"] = (
        g,
        [serialize(generate_document(g, GenConfig(seed=s, max_depth=6))) for s in range(3)],
    )
    # where the first inexplicable node is: deep, a later sibling, below
    # another bad node, beside stray text; then several bad nodes
    cases["invalid"] = (
        parse_dtd(RECURSIVE_DTD),
        [
            "<doc><section><title>t</title><section><title>u</title>"
            "<section><para>p</para></section></section></section></doc>",
            "<doc><section><title>a</title></section>"
            "<section><title>b</title><para>p</para><title>late</title></section></doc>",
            "<doc><section><para>p</para><section><para>q</para></section></section></doc>",
            "<doc>stray text<section><para>p</para><title>late</title></section></doc>",
            "<doc><section><title>t</title></section>stray</doc>",
            "<doc><section><para/></section><section><para/></section></doc>",
            "<doc><section><title>t</title><section><para/></section></section>"
            "<section><para/></section></doc>",
            "<doc><section><title>t</title><chapter/></section></doc>",
        ],
    )
    cases["textless"] = (
        parse_grammar_text(_TEXTLESS),
        ["<r><e/>x<r/></r>", "<r><r><q/></r>text</r>", "<r> <r>\n</r><e/> </r>", "<e/>"],
    )
    # whitespace in element-only and mixed content; comments and PIs inside
    cases["whitespace"] = (
        parse_dtd(MIXED_DTD),
        [
            "<article>\n  <title>t</title>\n  <para> <em> x </em> <code/> </para>\n</article>",
            "<article><title> </title><para>\n</para><para></para></article>",
            "<article><!--c--><title>t<?pi x?></title><?pi?><para>a<!--m-->b<code/>"
            "<em><!--e-->s<strong>z</strong></em></para><!--end--></article>",
            "<article><title>t</title>loose <para/></article>",
        ],
    )
    cases["xmark_text"] = (parse_dtd(XMARK_DTD), [_xmark_text_doc()])
    return cases


def _streamability_cases() -> dict[str, Grammar]:
    """Every grammar above; ``any`` is ``any_grammar()``."""
    cases = {name: g for name, (g, _) in _inference_cases().items()}
    cases["ambiguous"] = parse_grammar_text(_AMBIGUOUS)
    cases["textless"] = parse_grammar_text(_TEXTLESS)
    return cases


def _generation_cases() -> dict[str, Grammar]:
    """The acceptance suites' grammars, and DEEP_DTD's."""
    names = ("G0", "any", "xmark", "recursive", "mixed", "deep")
    return {name: _inference_cases()[name][0] for name in names}


# The queries of the README and the demos.
README_DEMO_QUERIES = [
    "//person/name",
    "/doc/a/b",
    "/doc/a[c]/b",
    "//c",
    "/doc/a[position()=2]/b",
    "/doc/a[contains(c,'y')]/b",
    "/doc/a[not(c)]/b",
    "/a/b/following-sibling::c",
    "/a/following::c",
    "//person/@id",
    "/doc/a[/doc/c]/b",
    "//x[strange(y/z)]",
]


@functools.cache
def _query_cases() -> dict[str, list[str]]:
    walks: list[str] = []
    for seed in range(10):
        walks += _walk_queries(random.Random(1000 + seed), _synthetic_dtd(seed)[1], 30)
    wide: list[str] = []
    for seed in range(3):
        wide += _wide_queries(random.Random(seed), _wide_dtd(seed, 120)[1])
    return {
        "corpus": _QUERY_CORPUS,
        "readme_demos": README_DEMO_QUERIES,
        "acceptance": G0_QUERIES + ANY_QUERIES + XMARK_QUERIES + RECURSIVE_QUERIES
        + MIXED_QUERIES + DEEP_QUERIES,
        "walks": walks,
        "wide": wide,
        "errors": _BAD_QUERIES,
        "nesting": [
            text
            for levels in (MAX_QUERY_NESTING, MAX_QUERY_NESTING + 1)
            for text in _nested_queries(levels).values()
        ],
    }


def _query_record(queries: list[str]) -> str:
    parts = []
    for text in queries:
        try:
            q = parse_query(text)
        except QuerySyntaxError as exc:
            parts.append(f"## {text!r}\nerror {exc}\nposition {exc.position}\n")
            continue
        parts.append(f"## {text!r}\n{q!r}\n{ell_to_text(approximate_to_ell(q))}\n")
    return "".join(parts)


def _generation_record(g: Grammar) -> str:
    docs = (serialize(generate_document(g, GenConfig(seed=s))) for s in range(10))
    return "".join(f"## {s}\n{xml}\n" for s, xml in enumerate(docs))


def _inference_record(g: Grammar, queries: list[str]) -> str:
    ells = [approximate_to_ell(parse_query(q)) for q in queries]
    parts = []
    for text, ell in zip(queries, ells):
        types = sorted(rule_to_text(r) for r in infer_types(ell, g))
        parts.append(f"## {text}\n{projector_to_text(infer_projector([ell], g))}types: {types}\n")
    parts.append(f"## union\n{projector_to_text(infer_projector(ells, g))}")
    return "".join(parts)


def _validation_record(g: Grammar, docs: list[str]) -> str:
    parts = []
    for xml in docs:
        result = validate_tree(parse_xml(xml), g)
        if isinstance(result, Invalid):
            parts.append(f"## {xml}\ninvalid {result.path}: {result.reason}\n")
        else:
            lines = "".join(f"{nid} {rule_to_text(r)}\n" for nid, r in sorted(result.items()))
            parts.append(f"## {xml}\n{lines}")
    return "".join(parts)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


GOLDEN_INFERENCE = {
    "G0": "0c1368d5f259262d9e4df668",
    "any": "1aad31dba6934d86ffeac97b",
    "xmark": "6e850b687e67a39e48fec6ec",
    "recursive": "0f5342f3b9c09ee83ff7c2be",
    "mixed": "318ebb1453d770e9f53b7aa6",
    "deep": "3dcc031faab042c03d8e2008",
    "dtd0": "9ad2534a9c4441cc5d036181",
    "dtd1": "478293bd4fc59da1eae65d27",
    "dtd2": "8553a12a065c183f351c897b",
    "dtd3": "9e5d8fdf52e7745d366f88e8",
    "dtd4": "1298ea63431ac43ee739a2ca",
    "dtd5": "ea17a26fc91e4f452f788ce6",
    "dtd6": "392dd42c1600672c959ca3f3",
    "dtd7": "8ffd6b987c6090b63f7a3d2b",
    "dtd8": "935040f8cb0ce80013789628",
    "dtd9": "41d5fa0e7e9dec4d12d971a3",
    "dtd10": "6b5281b9b615791258d99aeb",
    "dtd11": "2f29487c137f6cbaccb85a87",
    "dtd12": "530b257c88f9abf850345b0d",
    "dtd13": "9e153f1cd0873fbf3d3cb014",
    "dtd14": "f52ce9e1b5dc27108484d488",
    "dtd15": "d184cbfce936fc5385eaa5b9",
    "dtd16": "ef966b259271f60a39a00efe",
    "dtd17": "cf1cd06608c03193161944f6",
    "dtd18": "ab284ddc5d83d9503fcc993e",
    "dtd19": "a8db2406b64e740e346f7d19",
    "rtg0": "9df17d1b14222eafcb3be41e",
    "rtg1": "160f6de44f08363e638c0b47",
    "rtg2": "b8b5575caa7e946f2a5e4a43",
    "rtg3": "cd51b7b726b47dca113e49eb",
    "wide": "04d0568677b5b0c2092daf08",
}

GOLDEN_VALIDATION = {
    "G0": "13c52c7460080a7ba3ebe291",
    "xmark": "e994ca72074cb7515b59ce41",
    "recursive": "895b3299d48c5976c3c1bfe3",
    "mixed": "22d8be87bf868ed2117043e8",
    "dtd3": "f4574ff9a9c94e6f81a5e8c3",
    "dtd7": "26f5b144121be8f45d7ca275",
    "any": "d824ebaaca52b4d76fa322c4",
    "ambiguous": "ef79d54d0d2662d57539321a",
    "rtg1": "5b579fc0dc58696763255c6e",
    "invalid": "8dbf267399386666fac7af50",
    "textless": "9d76e91261fb981caf836138",
    "whitespace": "feae20a5b96bbb5c4f9cf6de",
    "xmark_text": "173fb2f5ca1a3f998bd7f738",
}

GOLDEN_STREAMABLE = {
    "G0": True,
    "any": True,
    "xmark": True,
    "recursive": True,
    "mixed": True,
    "deep": True,
    **{f"dtd{seed}": True for seed in range(20)},
    "rtg0": True,
    "rtg1": False,
    "rtg2": False,
    "rtg3": False,
    "wide": True,
    "ambiguous": False,
    "textless": True,
}


GOLDEN_GENERATION = {
    "G0": "454a8f5abcfa30950c727f40",
    "any": "aeb270536d394e33738966b0",
    "xmark": "8bef979ffa75434af2b87fc3",
    "recursive": "c6e35025e7fce29bc63eeb25",
    "mixed": "a11a6ddb9a844aa54f3cd683",
    "deep": "ea0484c71a9cab65245f6ec0",
}


GOLDEN_QUERIES = {
    "corpus": "00870d2a4fb374759bb2b344",
    "readme_demos": "311ee4312b0f7e98e336ae18",
    "acceptance": "6ba7a406a20b45530f75f26d",
    "walks": "0898f818f17c8833d26ac687",
    "wide": "c3bd5ffafa90eb1a5d78428b",
    "errors": "c9e67717e8f4d098d346d87b",
    "nesting": "0558aa45e23bb7cbff1982f5",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_QUERIES))
def test_queries_match_golden(case):
    assert _digest(_query_record(_query_cases()[case])) == GOLDEN_QUERIES[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_INFERENCE))
def test_inferred_projectors_match_golden(case):
    g, queries = _inference_cases()[case]
    assert _digest(_inference_record(g, queries)) == GOLDEN_INFERENCE[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_VALIDATION))
def test_interpretations_match_golden(case):
    g, docs = _validation_cases()[case]
    assert _digest(_validation_record(g, docs)) == GOLDEN_VALIDATION[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_STREAMABLE))
def test_streamability_matches_golden(case):
    assert is_streamable(_streamability_cases()[case]) == GOLDEN_STREAMABLE[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_GENERATION))
def test_generated_documents_match_golden(case):
    assert _digest(_generation_record(_generation_cases()[case])) == GOLDEN_GENERATION[case]


if __name__ == "__main__":
    print("GOLDEN_INFERENCE = {")
    for name, (g, queries) in _inference_cases().items():
        print(f'    "{name}": "{_digest(_inference_record(g, queries))}",')
    print("}\n\nGOLDEN_VALIDATION = {")
    for name, (g, docs) in _validation_cases().items():
        print(f'    "{name}": "{_digest(_validation_record(g, docs))}",')
    print("}\n\nGOLDEN_GENERATION = {")
    for name, g in _generation_cases().items():
        print(f'    "{name}": "{_digest(_generation_record(g))}",')
    print("}\n\nGOLDEN_QUERIES = {")
    for name, queries in _query_cases().items():
        print(f'    "{name}": "{_digest(_query_record(queries))}",')
    print("}\n\nGOLDEN_STREAMABLE = {")
    for name, g in _streamability_cases().items():
        print(f'    "{name}": {is_streamable(g)},')
    print("}")
