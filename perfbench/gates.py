"""Correctness gates.  Each reference here is independent of the code path
it checks: the raw expat parser for output counts, the XPath oracle for
query answers, the in-memory pruner for the streaming one, and repetition
for determinism.  Every gate returns a list of failure messages."""

from __future__ import annotations

import xml.parsers.expat


def count_output(text: str) -> tuple[int, int]:
    """Elements and UTF-8 text bytes in a serialised document."""
    if not text:
        return 0, 0
    counts = [0, 0]

    def start(*_):
        counts[0] += 1

    def chars(data):
        counts[1] += len(data.encode("utf-8"))

    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = start
    parser.CharacterDataHandler = chars
    parser.Parse(text.encode("utf-8"), True)
    return counts[0], counts[1]


def stats_match(label: str, stats: dict[str, int], output: str) -> list[str]:
    elements, text_bytes = count_output(output)
    if (stats["elements_out"], stats["text_bytes_out"]) != (elements, text_bytes):
        return [
            f"{label}: --stats says elements_out={stats['elements_out']} "
            f"text_bytes_out={stats['text_bytes_out']}, output has {elements} and {text_bytes}"
        ]
    return []


def all_succeeded(label: str, ok: int, failed: int) -> list[str]:
    if not ok:
        return [f"{label}: no repetition succeeded ({failed} failed)"]
    if failed:
        return [f"{label}: failed in {failed} of {ok + failed} repetitions"]
    return []


def same_digest(label: str, digests: set[str]) -> list[str]:
    if len(digests) > 1:
        return [f"{label}: {len(digests)} different outputs across repetitions"]
    return []


def same_output(label: str, stream_text: str, tree_text: str) -> list[str]:
    if stream_text != tree_text:
        at = next(
            (i for i, (a, b) in enumerate(zip(stream_text, tree_text)) if a != b),
            min(len(stream_text), len(tree_text)),
        )
        return [f"{label}: streaming and in-memory outputs differ at offset {at}"]
    return []


def answers(P, query, text: str) -> list[str]:
    """Answers of a parsed query as serialised subtrees in document order."""
    document = P.doc.parse_xml(text)
    nodes = {node.nid: node for node in document.iter_nodes()}
    out = []
    results = P.oracle.eval_full(query, document)
    for rid in sorted(results, key=lambda r: (r, 0, "") if isinstance(r, int) else (r[1], 1, r[2])):
        if isinstance(rid, tuple):
            owner = nodes[rid[1]]
            out.append(f"@{rid[2]}={dict(owner.attributes)[rid[2]]!r}")
        else:
            out.append(P.doc.subtree_text(nodes[rid]))
    return out


def answers_preserved(P, label: str, queries: list[str], original: str, pruned: str) -> list[str]:
    failures = []
    for text in queries:
        query = P.xpath.parse_query(text)
        if answers(P, query, original) != answers(P, query, pruned):
            failures.append(f"{label}: answers of {text!r} change after pruning")
    return failures
