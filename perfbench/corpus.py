"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` built from the workload seed, so
one seed always gives the same inputs.  Sizes follow fixed schedules and
only the content depends on the seed: throughput then compares across
seeds, while the documents themselves differ.  These generators belong to
the benchmark alone; the test suite keeps its own, so either may change
without moving the other.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# deep-select: eight element levels, one tiny kept header per section.
# Chosen because the query keeps about one byte in a hundred, so nearly all
# time goes to tokenising, event construction and the pruner's drop path.

DEEP_DTD = """\
<!ELEMENT doc (sec*)>
<!ELEMENT sec (meta, blk*)>
<!ELEMENT meta (#PCDATA)>
<!ELEMENT blk (par*)>
<!ELEMENT par (line*)>
<!ELEMENT line (word*)>
<!ELEMENT word (piece*)>
<!ELEMENT piece (atom*)>
<!ELEMENT atom (#PCDATA)>
"""

DEEP_QUERIES = ("/doc/sec/meta",)

_WORDS = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor "
    "incididunt ut labore et dolore magna aliqua enim ad minim veniam quis nostrud "
    "exercitation ullamco laboris nisi aliquip ex ea commodo consequat gold silver"
).split()


def _words(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def size_schedule(smallest: int, largest: int, count: int) -> list[int]:
    """``count`` (at least 2) target sizes spaced evenly on a log scale."""
    ratio = (largest / smallest) ** (1 / (count - 1))
    return [int(smallest * ratio**i) for i in range(count)]


def deep_doc(rng: random.Random, target_bytes: int) -> str:
    """A document valid against DEEP_DTD, element depth 8, about target_bytes."""
    parts = ["<doc>"]
    size = len("<doc></doc>")
    while size < target_bytes:
        sec = [f"<sec><meta>section {rng.randrange(10**6):06d} {_words(rng, 1, 3)}</meta>"]
        for _ in range(rng.randint(1, 3)):
            sec.append("<blk>")
            for _ in range(rng.randint(1, 2)):
                sec.append("<par>")
                for _ in range(rng.randint(1, 2)):
                    sec.append("<line>")
                    for _ in range(rng.randint(1, 3)):
                        sec.append("<word>")
                        for _ in range(rng.randint(1, 2)):
                            atoms = "".join(
                                f"<atom>{_words(rng, 1, 6)}</atom>"
                                for _ in range(rng.randint(1, 2))
                            )
                            sec.append(f"<piece>{atoms}</piece>")
                        sec.append("</word>")
                    sec.append("</line>")
                sec.append("</par>")
            sec.append("</blk>")
        sec.append("</sec>")
        text = "".join(sec)
        parts.append(text)
        size += len(text)
    parts.append("</doc>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# xmark-batch and tree-prune: an auction site in the style of the XMark
# benchmark.  Chosen for attributes, mixed content and recursive parlists,
# and because the query batch below keeps most of the bytes, so the kept
# path (serialisation, writes) dominates where deep-select drops.

XMARK_DTD = """\
<!ELEMENT site (regions, categories, people, open_auctions, closed_auctions)>
<!ELEMENT regions (africa, asia, europe, namerica)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT europe (item*)>
<!ELEMENT namerica (item*)>
<!ELEMENT item (location, quantity, name, payment, description, shipping, incategory*, mailbox)>
<!ATTLIST item id ID #REQUIRED featured CDATA #IMPLIED>
<!ELEMENT location (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT shipping (#PCDATA)>
<!ELEMENT description (text | parlist)>
<!ELEMENT text (#PCDATA | bold | keyword | emph)*>
<!ELEMENT bold (#PCDATA | bold | keyword | emph)*>
<!ELEMENT keyword (#PCDATA | bold | keyword | emph)*>
<!ELEMENT emph (#PCDATA | bold | keyword | emph)*>
<!ELEMENT parlist (listitem*)>
<!ELEMENT listitem (text | parlist)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category IDREF #REQUIRED>
<!ELEMENT mailbox (mail*)>
<!ELEMENT mail (from, to, date, text)>
<!ELEMENT from (#PCDATA)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT date (#PCDATA)>
<!ELEMENT categories (category*)>
<!ELEMENT category (name, description)>
<!ATTLIST category id ID #REQUIRED>
<!ELEMENT people (person*)>
<!ELEMENT person (name, emailaddress, phone?, address?, homepage?, creditcard?, profile?, watches?)>
<!ATTLIST person id ID #REQUIRED>
<!ELEMENT emailaddress (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT homepage (#PCDATA)>
<!ELEMENT address (street, city, country, province?, zipcode)>
<!ELEMENT street (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT country (#PCDATA)>
<!ELEMENT province (#PCDATA)>
<!ELEMENT zipcode (#PCDATA)>
<!ELEMENT creditcard (#PCDATA)>
<!ELEMENT profile (interest*, education?, gender?, business, age?)>
<!ATTLIST profile income CDATA #IMPLIED>
<!ELEMENT interest EMPTY>
<!ATTLIST interest category IDREF #REQUIRED>
<!ELEMENT education (#PCDATA)>
<!ELEMENT gender (#PCDATA)>
<!ELEMENT business (#PCDATA)>
<!ELEMENT age (#PCDATA)>
<!ELEMENT watches (watch*)>
<!ELEMENT watch EMPTY>
<!ATTLIST watch open_auction IDREF #REQUIRED>
<!ELEMENT open_auctions (open_auction*)>
<!ELEMENT open_auction (initial, reserve?, bidder*, current, itemref, seller, annotation?, quantity, type, interval)>
<!ATTLIST open_auction id ID #REQUIRED>
<!ELEMENT initial (#PCDATA)>
<!ELEMENT reserve (#PCDATA)>
<!ELEMENT current (#PCDATA)>
<!ELEMENT bidder (date, time, personref, increase)>
<!ELEMENT time (#PCDATA)>
<!ELEMENT personref EMPTY>
<!ATTLIST personref person IDREF #REQUIRED>
<!ELEMENT increase (#PCDATA)>
<!ELEMENT itemref EMPTY>
<!ATTLIST itemref item IDREF #REQUIRED>
<!ELEMENT seller EMPTY>
<!ATTLIST seller person IDREF #REQUIRED>
<!ELEMENT annotation (author, description?, happiness)>
<!ELEMENT author EMPTY>
<!ATTLIST author person IDREF #REQUIRED>
<!ELEMENT happiness (#PCDATA)>
<!ELEMENT type (#PCDATA)>
<!ELEMENT interval (start, end)>
<!ELEMENT start (#PCDATA)>
<!ELEMENT end (#PCDATA)>
<!ELEMENT closed_auctions (closed_auction*)>
<!ELEMENT closed_auction (seller, buyer, itemref, price, date, quantity, type, annotation?)>
<!ELEMENT buyer EMPTY>
<!ATTLIST buyer person IDREF #REQUIRED>
<!ELEMENT price (#PCDATA)>
"""

# Modelled on XMark queries: value and positional predicates, not(),
# descendant steps.  Together they keep most rules and most bytes.
XMARK_QUERIES = (
    "/site/people/person[@id='person0']/name",
    "/site/open_auctions/open_auction/bidder[1]/increase",
    "/site/closed_auctions/closed_auction[price >= 40]/price",
    "//europe/item/name",
    "//item[contains(description,'gold')]/name",
    "//person[not(address)]/name",
    "//person[profile/@income > 50000]/name",
    "//open_auction[bidder]/current",
)

_REGIONS = ("africa", "asia", "europe", "namerica")
_INLINE = ("bold", "keyword", "emph")


def _rich_text(rng: random.Random, depth: int = 0) -> str:
    """Mixed content: words interleaved with nested inline markup."""
    out = [_words(rng, 2, 8)]
    for _ in range(rng.randint(0, 3)):
        tag = rng.choice(_INLINE)
        inner = _rich_text(rng, depth + 1) if depth < 2 and rng.random() < 0.3 else _words(rng, 1, 3)
        out.append(f" <{tag}>{inner}</{tag}> {_words(rng, 1, 6)}")
    return "".join(out)


def _description(rng: random.Random, depth: int = 0) -> str:
    if depth < 3 and rng.random() < 0.35:
        items = "".join(
            f"<listitem>{_description(rng, depth + 1)}</listitem>"
            for _ in range(rng.randint(1, 3))
        )
        return f"<parlist>{items}</parlist>"
    return f"<text>{_rich_text(rng)}</text>"


def _item(rng: random.Random, i: int, n_people: int) -> str:
    featured = ' featured="yes"' if rng.random() < 0.1 else ""
    cats = "".join(
        f'<incategory category="category{rng.randrange(5)}"></incategory>'
        for _ in range(rng.randint(0, 2))
    )
    mails = "".join(
        f"<mail><from>person{rng.randrange(n_people)}</from><to>person{rng.randrange(n_people)}</to>"
        f"<date>{rng.randint(1, 28):02d}/{rng.randint(1, 12):02d}/2001</date>"
        f"<text>{_rich_text(rng)}</text></mail>"
        for _ in range(rng.randint(0, 2))
    )
    return (
        f'<item id="item{i}"{featured}><location>{rng.choice(_WORDS)} city</location>'
        f"<quantity>{rng.randint(1, 5)}</quantity><name>{_words(rng, 1, 3)}</name>"
        f"<payment>{rng.choice(('Cash', 'Creditcard', 'Money order'))}</payment>"
        f"<description>{_description(rng)}</description>"
        f"<shipping>{_words(rng, 2, 5)}</shipping>{cats}<mailbox>{mails}</mailbox></item>"
    )


def _person(rng: random.Random, i: int, n_auctions: int) -> str:
    parts = [
        f'<person id="person{i}"><name>{rng.choice(_WORDS).title()} {rng.choice(_WORDS).title()}</name>',
        f"<emailaddress>mailto:p{i}@example.net</emailaddress>",
    ]
    if rng.random() < 0.5:
        parts.append(f"<phone>+{rng.randint(1, 99)} {rng.randrange(10**7):07d}</phone>")
    if rng.random() < 0.5:
        province = f"<province>{rng.choice(_WORDS)}</province>" if rng.random() < 0.3 else ""
        parts.append(
            f"<address><street>{rng.randint(1, 99)} {rng.choice(_WORDS)} St</street>"
            f"<city>{rng.choice(_WORDS)}</city><country>{rng.choice(_WORDS)}</country>"
            f"{province}<zipcode>{rng.randrange(10**5):05d}</zipcode></address>"
        )
    if rng.random() < 0.3:
        parts.append(f"<homepage>http://www.example.net/~p{i}</homepage>")
    if rng.random() < 0.6:
        parts.append(f"<creditcard>{rng.randrange(10**16):016d}</creditcard>")
    if rng.random() < 0.7:
        income = f' income="{rng.randint(10000, 99999)}.{rng.randrange(100):02d}"' if rng.random() < 0.8 else ""
        interests = "".join(
            f'<interest category="category{rng.randrange(5)}"></interest>'
            for _ in range(rng.randint(0, 3))
        )
        education = f"<education>{rng.choice(('College', 'Graduate School', 'Other'))}</education>" if rng.random() < 0.5 else ""
        gender = f"<gender>{rng.choice(('male', 'female'))}</gender>" if rng.random() < 0.5 else ""
        age = f"<age>{rng.randint(18, 80)}</age>" if rng.random() < 0.5 else ""
        parts.append(
            f"<profile{income}>{interests}{education}{gender}"
            f"<business>{rng.choice(('Yes', 'No'))}</business>{age}</profile>"
        )
    if n_auctions and rng.random() < 0.4:
        watches = "".join(
            f'<watch open_auction="open_auction{rng.randrange(n_auctions)}"></watch>'
            for _ in range(rng.randint(0, 3))
        )
        parts.append(f"<watches>{watches}</watches>")
    parts.append("</person>")
    return "".join(parts)


def _annotation(rng: random.Random, n_people: int) -> str:
    description = f"<description>{_description(rng)}</description>" if rng.random() < 0.7 else ""
    return (
        f'<annotation><author person="person{rng.randrange(n_people)}"></author>'
        f"{description}<happiness>{rng.randint(1, 10)}</happiness></annotation>"
    )


def _open_auction(rng: random.Random, i: int, n_items: int, n_people: int) -> str:
    initial = rng.uniform(1, 100)
    reserve = f"<reserve>{initial * 1.5:.2f}</reserve>" if rng.random() < 0.4 else ""
    bidders = []
    current = initial
    for _ in range(rng.choice((0, 1, 2, 3, 5))):
        inc = rng.uniform(1, 20)
        current += inc
        bidders.append(
            f"<bidder><date>{rng.randint(1, 28):02d}/{rng.randint(1, 12):02d}/2001</date>"
            f"<time>{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00</time>"
            f'<personref person="person{rng.randrange(n_people)}"></personref>'
            f"<increase>{inc:.2f}</increase></bidder>"
        )
    annotation = _annotation(rng, n_people) if rng.random() < 0.5 else ""
    return (
        f'<open_auction id="open_auction{i}"><initial>{initial:.2f}</initial>{reserve}'
        f"{''.join(bidders)}<current>{current:.2f}</current>"
        f'<itemref item="item{rng.randrange(n_items)}"></itemref>'
        f'<seller person="person{rng.randrange(n_people)}"></seller>{annotation}'
        f"<quantity>{rng.randint(1, 3)}</quantity><type>{rng.choice(('Regular', 'Featured'))}</type>"
        f"<interval><start>01/01/2001</start><end>12/31/2001</end></interval></open_auction>"
    )


def _closed_auction(rng: random.Random, n_items: int, n_people: int) -> str:
    annotation = _annotation(rng, n_people) if rng.random() < 0.5 else ""
    return (
        f'<closed_auction><seller person="person{rng.randrange(n_people)}"></seller>'
        f'<buyer person="person{rng.randrange(n_people)}"></buyer>'
        f'<itemref item="item{rng.randrange(n_items)}"></itemref>'
        f"<price>{rng.uniform(5, 120):.2f}</price>"
        f"<date>{rng.randint(1, 28):02d}/{rng.randint(1, 12):02d}/2001</date>"
        f"<quantity>{rng.randint(1, 3)}</quantity><type>{rng.choice(('Regular', 'Featured'))}</type>"
        f"{annotation}</closed_auction>"
    )


# Bytes one unit of scale adds, measured over many seeds; used only to pick
# the number of units for a target size.
_XMARK_BYTES_PER_UNIT = 1400


def xmark_doc(rng: random.Random, target_bytes: int) -> str:
    """A document valid against XMARK_DTD of about target_bytes.

    One unit of scale is one item, half a person, a third of an open
    auction and a quarter of a closed auction, roughly XMark's proportions.
    """
    units = max(4, target_bytes // _XMARK_BYTES_PER_UNIT)
    n_items, n_people = units, max(1, units // 2)
    n_open, n_closed = max(1, units // 3), max(1, units // 4)
    parts = ["<site><regions>"]
    item = 0
    for r, region in enumerate(_REGIONS):
        share = n_items // len(_REGIONS) + (1 if r < n_items % len(_REGIONS) else 0)
        parts.append(f"<{region}>")
        for _ in range(share):
            parts.append(_item(rng, item, n_people))
            item += 1
        parts.append(f"</{region}>")
    parts.append("</regions><categories>")
    for c in range(5):
        parts.append(
            f'<category id="category{c}"><name>{_words(rng, 1, 2)}</name>'
            f"<description>{_description(rng)}</description></category>"
        )
    parts.append("</categories><people>")
    parts.extend(_person(rng, p, n_open) for p in range(n_people))
    parts.append("</people><open_auctions>")
    parts.extend(_open_auction(rng, a, n_items, n_people) for a in range(n_open))
    parts.append("</open_auctions><closed_auctions>")
    parts.extend(_closed_auction(rng, n_items, n_people) for _ in range(n_closed))
    parts.append("</closed_auctions></site>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# wide-dtd-infer: synthetic DTDs of a few hundred elements.  Chosen because
# static inference cost grows with grammar size and recursion, which the
# hand-written DTDs above never reach.  The schema is held in the
# generator's own form, so documents and queries come from the benchmark
# and not from the code under test.

_WINDOW = 40  # an element's children are drawn from the next _WINDOW names
_RECORDS = 4  # the root is a collection of this many record kinds
# A record grows optional content only within this size.  Small records put
# several in every document, so the kept share and the validation cost of a
# document vary less from seed to seed (2 KB records spread them twice as far).
_RECORD_BYTES = 1024


class WideSchema:
    """A seeded synthetic DTD with recursion, ``? * +``, alternation and
    mixed content.

    Element i mentions only later elements, except for back references
    under ``?`` or ``*``, so every element has a finite derivation.  The
    root is a starred choice of record elements, as in most data-centric
    schemas, so documents of any size are a run of records.
    """

    def __init__(self, rng: random.Random, n_elements: int):
        self.names = [f"e{i}" for i in range(n_elements)]
        # Exact shares of each kind, shuffled, so that schemas of one size
        # differ in shape but not in make-up from seed to seed.
        n_free = n_elements - 1 - _RECORDS
        kinds = ["text"] * (n_free * 12 // 100) + ["empty"] * (n_free * 5 // 100)
        kinds += ["mixed"] * (n_free * 10 // 100)
        kinds += ["seq"] * (n_free - len(kinds))
        rng.shuffle(kinds)
        kinds = ["seq"] * (1 + _RECORDS) + kinds
        # per element: (kind, particles); a particle is (alternatives, quantifier)
        self.models: list[tuple[str, list[tuple[tuple[str, ...], str]]]] = []
        for i, kind in enumerate(kinds):
            later = self.names[i + 1 : i + 1 + _WINDOW]
            if i == 0:
                self.models.append(("seq", [(tuple(self.names[1 : _RECORDS + 1]), "*")]))
            elif len(later) < 2 or kind == "text":
                self.models.append(("text", []))
            elif kind == "empty":
                self.models.append(("empty", []))
            elif kind == "mixed":
                picks = rng.sample(later, min(len(later), rng.randint(1, 3)))
                self.models.append(("mixed", [((n,), "*") for n in picks]))
            else:
                self.models.append(("seq", self._particles(rng, i)))
        # every element is mentioned by an earlier structured one, so the
        # whole grammar is reachable from the root
        mentioned = {n for _, parts in self.models for alts, _ in parts for n in alts}
        for i in range(1, n_elements):
            if self.names[i] not in mentioned:
                parents = [j for j in range(max(1, i - _WINDOW), i) if self.models[j][0] == "seq"]
                parent = rng.choice(parents) if parents else 0
                self.models[parent][1].append(((self.names[i],), "?"))
        # smallest serialisation of each element, computed from the last
        # element back: required particles only ever mention later elements
        self.min_size = [0] * n_elements
        for i in reversed(range(n_elements)):
            kind, parts = self.models[i]
            inner = sum(
                min(self.min_size[int(n[1:])] for n in alts)
                for alts, quant in parts
                if kind == "seq" and quant in ("", "+")
            )
            self.min_size[i] = 2 * len(self.names[i]) + 5 + inner

    def _particles(self, rng: random.Random, i: int) -> list[tuple[tuple[str, ...], str]]:
        later = self.names[i + 1 : i + 1 + _WINDOW]
        out: list[tuple[tuple[str, ...], str]] = []
        used: set[str] = set()
        for _ in range(rng.randint(2, 4)):
            alts = tuple(rng.sample(later, 2)) if rng.random() < 0.25 else (rng.choice(later),)
            if used.isdisjoint(alts):
                used.update(alts)
                out.append((alts, rng.choice(("", "?", "*", "+"))))
        if i > _RECORDS + 1 and rng.random() < 0.15:
            back = self.names[rng.randrange(max(_RECORDS + 1, i - 30), i)]
            if back not in used:
                out.append(((back,), rng.choice(("?", "*"))))
        return out

    def dtd(self) -> str:
        lines = []
        for name, (kind, parts) in zip(self.names, self.models):
            if kind == "text":
                model = "(#PCDATA)"
            elif kind == "empty":
                model = "EMPTY"
            elif kind == "mixed":
                model = "(#PCDATA | " + " | ".join(alts[0] for alts, _ in parts) + ")*"
            else:
                model = "(" + ", ".join(
                    (alts[0] if len(alts) == 1 else f"({' | '.join(alts)})") + quant
                    for alts, quant in parts
                ) + ")"
            lines.append(f"<!ELEMENT {name} {model}>\n")
        return "".join(lines)

    def children(self, name: str) -> list[str]:
        _, parts = self.models[int(name[1:])]
        return sorted({n for alts, _ in parts for n in alts})

    def document(self, rng: random.Random, target_bytes: int) -> str:
        """A valid document of about target_bytes: a run of records, each
        grown only while it stays within about _RECORD_BYTES."""
        parts = [f"<{self.names[0]}>"]
        size = 0
        while size < target_bytes:
            kind = self.names[1 + (len(parts) - 1) % _RECORDS]  # record kinds take turns
            record = self._element(rng, kind, _RECORD_BYTES)
            parts.append(record)
            size += len(record)
        parts.append(f"</{self.names[0]}>")
        return "".join(parts)

    def _element(self, rng: random.Random, name: str, budget: int) -> str:
        """One element; optional content is added only while it fits in budget."""
        i = int(name[1:])
        kind, parts = self.models[i]
        free = budget - self.min_size[i]
        pieces = [_words(rng, 1, 4)] if kind in ("text", "mixed") else []
        for alts, quant in parts:
            required = 1 if kind == "seq" and quant in ("", "+") else 0
            extra = {"": 0, "?": 1, "*": 2, "+": 1}[quant]
            for k in range(required + rng.randint(0, extra)):
                child = rng.choice(alts)
                floor = self.min_size[int(child[1:])]
                reserved = floor if k < required else 0  # already in min_size[i]
                if not reserved and floor > free:
                    break
                text = self._element(rng, child, reserved + free // 2)
                free -= len(text) - reserved
                pieces.append(text)
        if kind == "mixed":
            rng.shuffle(pieces)
        return f"<{name}>{''.join(pieces)}</{name}>"

    def queries(self, rng: random.Random, count: int) -> list[str]:
        """Queries drawn from random walks down the schema from the root.

        Every step follows a real parent/child edge, so every query is
        satisfiable: random tag triples would make almost all of them
        statically empty and measure only the early exit.  The features
        cycle through a fixed plan (a ``//`` or not; a child, ``or`` or
        ``[position()=1]`` predicate or none; an ``ancestor::`` or
        ``parent::*`` tail or none), so only the paths vary with the seed,
        not the mix of query shapes.
        """
        out: list[str] = []
        misses = 0
        while len(out) < count:
            length = 5 + len(out) % 4  # elements on the walk, root included
            path = [self.names[0]]
            while len(path) < length and self.children(path[-1]):
                path.append(rng.choice(self.children(path[-1])))
            if len(path) == length or (misses > 100 and len(path) >= 4):
                out.append(self._walk_to_query(rng, path, QUERY_PLAN[len(out) % len(QUERY_PLAN)]))
                misses = 0
            else:
                misses += 1
        return out

    def _walk_to_query(self, rng: random.Random, path: list[str], plan: tuple[bool, str, str]) -> str:
        """Shape a walk into a query.  Feature positions are fixed (``//``
        skips the record level, the predicate sits on the next-to-last
        step, ``ancestor::`` names the element two levels up) so that a
        shape costs about the same whichever walk it is given."""
        descendant, predicate, tail = plan
        steps = list(path)
        if descendant:
            steps = [path[0], "/" + path[2]] + path[3:]
            path = path[:1] + path[2:]
        at = len(steps) - 2
        kids = self.children(path[at])
        if predicate == "child" and kids:
            steps[at] += f"[{rng.choice(kids)}]"
        elif predicate == "or" and len(kids) >= 2:
            a, b = rng.sample(kids, 2)
            steps[at] += f"[{a} or {b}]"
        elif predicate:
            steps[at] += "[position()=1]"
        query = "/" + "/".join(steps)
        if tail == "ancestor":
            query += f"/ancestor::{path[-3]}"
        elif tail == "parent":
            query += "/parent::*"
        return query


# One query of each shape: with or without //, four predicate kinds, three tails.
QUERY_PLAN = [
    (descendant, predicate, tail)
    for descendant in (False, True)
    for predicate in ("", "child", "or", "position")
    for tail in ("", "ancestor", "parent")
]
