"""Bit-exact JSON serialization for every value the CLI touches.

Rationals travel as ``"p/q"`` strings (plain ``"p"`` when integral) and
``"inf"`` is the unique sentinel for infinite edge lengths, so parse and
serialize round-trip exactly.  Deck elements in files may be generator
words such as ``"a^-1 b"``, resolved against the manifold's named
generators, or explicit matrix-plus-translation objects.

Parsers check the JSON shape of what they read and raise ``InputError``
on a document that does not fit, so malformed files surface as one-line
usage errors rather than as exceptions from deep inside the library.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curve import INF, AbstractTropicalCurve, Edge
from .embedded import ParametrizedTropicalCurve, ZeroCycle, parametrized_curve, zero_cycle
from .errors import InputError
from .linalg import as_fraction, as_int, vector
from .manifold import (
    KIND_EUCLIDEAN,
    KIND_GENERAL,
    KIND_KLEIN,
    KIND_PRODUCT,
    KIND_TORUS,
    AffineQuotientManifold,
    DeckElement,
    TropicalForm,
)
from .pairing import Block, GradedSpace


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    return _JSON_TYPES.get(type(value), "a number")


def _expect(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (dict, list or str), else an InputError."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be {_JSON_TYPES[kind]}, not {_json_type(value)}")
    return value


def _member(doc: dict, key: str, what: str, kind: type = object):
    """``doc[key]``, required to be present and, if given, a JSON ``kind``."""
    if key not in doc:
        raise InputError(f"{what} has no {key!r} entry")
    return _expect(doc[key], kind, f"the {key!r} entry of {what}")


def _objects(items, what: str) -> list[dict]:
    return [_expect(item, dict, what) for item in items]


def _int(x) -> int:
    return as_int(x if type(x) is int else as_fraction(x))


def frac_str(x) -> str:
    f = as_fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_frac(s) -> Fraction:
    return as_fraction(s)


def vector_json(v) -> list[str]:
    return [frac_str(x) for x in v]


def parse_vector(items) -> tuple:
    return vector(_expect(items, list, "a vector"))


def length_json(length) -> str:
    return "inf" if length == INF else frac_str(length)


def parse_length(s):
    return INF if s == "inf" else as_fraction(s)


# ---------------------------------------------------------------------------
# Deck elements and manifolds


def deck_json(g: DeckElement) -> dict:
    return {
        "matrix": [list(row) for row in g.linear],
        "translation": vector_json(g.translation),
    }


def parse_deck(obj, manifold: AffineQuotientManifold | None = None) -> DeckElement:
    word = obj if isinstance(obj, str) else _expect(obj, dict, "a deck element").get("word")
    if word is not None:
        if manifold is None:
            raise InputError("generator words need a manifold to resolve against")
        return manifold.deck_from_word(_expect(word, str, "a deck word"))
    rows = _member(obj, "matrix", "a deck element", list)
    return DeckElement(
        tuple(tuple(_int(e) for e in _expect(row, list, "a matrix row")) for row in rows),
        parse_vector(_member(obj, "translation", "a deck element")),
    )


def manifold_json(M: AffineQuotientManifold) -> dict:
    doc = {
        "kind": M.kind,
        "dim": M.dim,
        "generators": [
            dict(name=name, **deck_json(g)) for name, g in zip(M.names, M.generators)
        ],
    }
    if M.kind == KIND_KLEIN:
        doc["klein"] = {"x0": frac_str(M.klein_params[0]), "y0": frac_str(M.klein_params[1])}
    if M.kind == KIND_PRODUCT:
        doc["base"] = manifold_json(M.base)
    return doc


_KINDS = (KIND_EUCLIDEAN, KIND_TORUS, KIND_KLEIN, KIND_PRODUCT, KIND_GENERAL)


def parse_manifold(doc: dict) -> AffineQuotientManifold:
    """Every kind takes one path: each generator is read with ``parse_deck``
    under its name, and ``AffineQuotientManifold`` refuses a document whose
    dimension, generators, base or ``klein`` block contradict each other."""
    what = "a manifold document"
    kind = _member(_expect(doc, dict, what), "kind", what, str)
    if kind not in _KINDS:
        raise InputError(f"unknown manifold kind {kind!r}")
    base = parse_manifold(_member(doc, "base", what)) if kind == KIND_PRODUCT else None
    gens = _objects(_member(doc, "generators", what, list), "a generator")
    defaults = ["a", "b"] if kind == KIND_KLEIN else []
    defaults += [f"{'t' if kind == KIND_TORUS else 'g'}{i + 1}" for i in range(len(gens))]
    names = tuple(_expect(g.get("name", d), str, "a generator name") for g, d in zip(gens, defaults))
    decks = tuple(parse_deck(g) for g in gens)
    params = None
    if kind == KIND_KLEIN:
        params = _klein_params(doc.get("klein"), dict(zip(names, decks)))
    return AffineQuotientManifold(_int(_member(doc, "dim", what)), decks, names, kind, params, base)


def _klein_params(block, named: dict) -> tuple[Fraction, Fraction]:
    """(x0, y0) from a ``klein`` block, or else from generators a and b."""
    if block is not None:
        block = _expect(block, dict, "the 'klein' entry")
        return tuple(as_fraction(_member(block, k, "the 'klein' entry")) for k in ("x0", "y0"))
    if "a" not in named or "b" not in named:
        raise InputError("a klein document needs a 'klein' entry or generators 'a' and 'b'")
    a, b = named["a"].translation, named["b"].translation
    if len(a) != 2 or len(b) != 2:
        raise InputError("klein generators need 2-coordinate translations")
    return as_fraction(b[0]), as_fraction(a[1])


# ---------------------------------------------------------------------------
# Curves


def abstract_curve_json(curve: AbstractTropicalCurve) -> dict:
    edges = []
    for e in curve.edges:
        entry: dict = {"id": e.id, "tail": e.tail}
        if e.head is None:
            entry["boundary"] = True
        else:
            entry["head"] = e.head
        entry["length"] = length_json(e.length)
        edges.append(entry)
    return {"vertices": list(curve.vertices), "edges": edges}


def parse_abstract_curve(doc: dict) -> AbstractTropicalCurve:
    what = "a curve document"
    edges = []
    for e in _objects(_member(_expect(doc, dict, what), "edges", what, list), "an edge"):
        head = None if e.get("boundary") else e["head"]
        edges.append(Edge(str(e["id"]), str(e["tail"]), head if head is None else str(head),
                          parse_length(e["length"])))
    vertices = _member(doc, "vertices", what, list)
    return AbstractTropicalCurve(tuple(str(v) for v in vertices), tuple(edges))


def parametrized_curve_json(h: ParametrizedTropicalCurve) -> dict:
    doc = abstract_curve_json(h.abstract)
    doc["manifold"] = manifold_json(h.manifold)
    doc["positions"] = {v: vector_json(pos) for v, pos in h.positions.items()}
    plus = []
    for e in h.abstract.edges:
        d = h.data(e.id)
        entry = {
            "id": e.id,
            "direction": list(d.direction),
            "weight": d.weight,
            "image_length": length_json(d.image_length),
        }
        if not d.deck.is_identity():
            entry["deck"] = deck_json(d.deck)
        plus.append(entry)
    doc["edges+"] = plus
    return doc


def parse_parametrized_curve(doc: dict) -> ParametrizedTropicalCurve:
    manifold = parse_manifold(doc["manifold"])
    abstract = parse_abstract_curve(doc)
    what = "a parametrized curve document"
    positions = {
        str(v): parse_vector(pos) for v, pos in _member(doc, "positions", what, dict).items()
    }
    edges = {}
    for entry in _objects(_member(doc, "edges+", what, list), "an 'edges+' entry"):
        deck = entry.get("deck")
        edges[str(entry["id"])] = {
            "direction": parse_vector(_member(entry, "direction", "an 'edges+' entry")),
            "weight": _int(entry.get("weight", 1)),
            "image_length": parse_length(entry["image_length"]),
            "deck": parse_deck(deck, manifold) if deck is not None else None,
        }
    return parametrized_curve(manifold, abstract, positions, edges)


def is_parametrized_doc(doc) -> bool:
    return isinstance(doc, dict) and ("positions" in doc or "edges+" in doc)


# ---------------------------------------------------------------------------
# Forms, cycles, graded spaces


def form_json(form: TropicalForm) -> dict:
    return {"dim": form.dim, "degree": form.degree, "coefficients": list(form.coefficients)}


def parse_form(doc: dict) -> TropicalForm:
    what = "a form document"
    coefficients = _member(_expect(doc, dict, what), "coefficients", what, list)
    return TropicalForm(_int(_member(doc, "dim", what)), _int(_member(doc, "degree", what)),
                        tuple(_int(c) for c in coefficients))


def cycle_json(z: ZeroCycle) -> list[dict]:
    return [{"point": vector_json(p), "mult": m} for p, m in z.entries]


def parse_cycle(doc, manifold: AffineQuotientManifold) -> ZeroCycle:
    what = "a 0-cycle entry"
    entries = _objects(_expect(doc, list, "a 0-cycle document"), what)
    return zero_cycle(manifold, [(_expect(_member(e, "point", what), list, "a vector"),
                                  _int(_member(e, "mult", what))) for e in entries])


def graded_space_json(space: GradedSpace, vectors=()) -> dict:
    return {
        "blocks": [
            {"dimension": b.dimension, "sign": b.sign, "form": form_json(b.form)}
            for b in space.blocks
        ],
        "vectors": [vector_json(v) for v in vectors],
    }


def parse_graded_space(doc: dict) -> tuple[GradedSpace, list[tuple]]:
    what = "a graded space document"
    blocks = tuple(
        Block(_int(_member(b, "dimension", "a block")), _int(_member(b, "sign", "a block")),
              parse_form(_member(b, "form", "a block")))
        for b in _objects(_member(_expect(doc, dict, what), "blocks", what, list), "a block")
    )
    vectors = _expect(doc.get("vectors", []), list, f"the 'vectors' entry of {what}")
    return GradedSpace(blocks), [parse_vector(v) for v in vectors]


# ---------------------------------------------------------------------------
# Files


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path: str | None = None) -> str:
    text = json.dumps(obj, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
