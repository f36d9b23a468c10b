import json
import random
from pathlib import Path

import pytest

from godex.complexes import single_complex
from godex.errors import FormatError, GodexError
from godex.exactlin import GF, QQ
from godex.filtered import random_filtered_complex
from godex.problemfile import ProblemFile, emit_document, parse_document
from godex.site import (
    MonotoneMap, constant_sheaf, pseudocircle_poset, random_sheaf, sierpinski_poset,
)


def roundtrip(pf: ProblemFile) -> str:
    text = emit_document(pf)
    again = emit_document(parse_document(text))
    assert text == again
    return text


def test_roundtrip_constant_sheaf(f5):
    P = pseudocircle_poset()
    pf = ProblemFile(f5, P, constant_sheaf(P, single_complex(f5, 0, 1)))
    roundtrip(pf)


def test_roundtrip_random_sheaves_both_fields():
    rng = random.Random(0)
    P = sierpinski_poset()
    for field in (GF(5), QQ):
        F = random_sheaf(P, field, 3, max_dim=2, span=2)
        text = roundtrip(ProblemFile(field, P, F))
        pf2 = parse_document(text)
        for x in P.elements:
            assert pf2.sheaf.stalk(x) == F.stalk(x)
        for pair in P.pairs():
            assert pf2.sheaf.restriction(*pair) == F.restriction(*pair)


def test_roundtrip_with_map_and_poset_map(f5):
    rng = random.Random(1)
    P = pseudocircle_poset()
    from godex.complexes import random_map
    from godex.site import SheafMap
    F = random_sheaf(P, f5, 5, max_dim=2, span=2)
    G = random_sheaf(P, f5, 6, max_dim=2, span=2)
    f = SheafMap(F, G, random_map(F, G, rng))
    S = sierpinski_poset()
    m = MonotoneMap(P, S, {"a": "c", "b": "c", "x": "o", "y": "o"})
    pf = ProblemFile(f5, P, F, sheaf2=G, sheaf_map=f, poset_map=m)
    text = roundtrip(pf)
    pf2 = parse_document(text)
    for x in P.elements:
        assert pf2.sheaf_map.component(x) == f.component(x)


def test_roundtrip_filtered(qq):
    rng = random.Random(2)
    FC = random_filtered_complex(qq, rng, span=2, max_dim=2)
    pf = ProblemFile(qq, None, None, filtered_complex=FC)
    text = roundtrip(pf)
    pf2 = parse_document(text)
    assert pf2.filtered_complex == FC


def test_rational_serialization(qq):
    from godex.problemfile import _emit_entry, _parse_entry
    from fractions import Fraction
    assert _emit_entry(qq, Fraction(3, 4)) == "3/4"
    assert _emit_entry(qq, Fraction(5)) == "5"
    assert _parse_entry(qq, "7/2") == Fraction(7, 2)
    assert _parse_entry(qq, "-3") == Fraction(-3)


def test_parse_error_reports_line_and_column():
    with pytest.raises(FormatError) as exc:
        parse_document('{"format": "godex/1",\n  "field": }')
    assert "line 2" in str(exc.value)


def test_missing_format_key():
    with pytest.raises(FormatError):
        parse_document('{"field": "Q"}')


def test_semantic_error_names_invariant(f5):
    # d∘d != 0 must be reported with the violated invariant
    doc = {
        "format": "godex/1",
        "field": {"p": 5},
        "poset": {"elements": ["a"], "covers": []},
        "sheaf": {"stalks": {"a": {
            "lower_bound": 0,
            "dims": {"0": 1, "1": 1, "2": 1},
            "differentials": {"0": [[1]], "1": [[1]]},
        }}, "restrictions": []},
    }
    with pytest.raises(FormatError) as exc:
        parse_document(json.dumps(doc))
    assert "d∘d" in str(exc.value)


def test_inconsistent_diamond_is_rejected(f5):
    # restrictions along the two sides of the pseudocircle diamond disagree
    doc = {
        "format": "godex/1",
        "field": {"p": 5},
        "poset": {"elements": ["a", "b", "x", "y"],
                  "covers": [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]},
        "sheaf": {
            "stalks": {e: {"lower_bound": 0, "dims": {"0": 1}, "differentials": {}}
                       for e in ["a", "b", "x", "y"]},
            "restrictions": [
                {"from": "a", "to": "x", "components": {"0": [[1]]}},
                {"from": "a", "to": "y", "components": {"0": [[2]]}},
                {"from": "b", "to": "x", "components": {"0": [[1]]}},
                {"from": "b", "to": "y", "components": {"0": [[1]]}},
            ],
        },
    }
    # a sheaf on the pseudocircle has no composable pairs, so this parses;
    # adding a bottom that maps into both sides must fail functoriality
    parse_document(json.dumps(doc))
    doc["poset"]["elements"] = ["z", "a", "b", "x", "y"]
    doc["poset"]["covers"] += [["z", "a"], ["z", "b"]]
    doc["sheaf"]["stalks"]["z"] = {"lower_bound": 0, "dims": {"0": 1},
                                   "differentials": {}}
    doc["sheaf"]["restrictions"] += [
        {"from": "z", "to": "a", "components": {"0": [[1]]}},
        {"from": "z", "to": "b", "components": {"0": [[1]]}},
    ]
    with pytest.raises(FormatError) as exc:
        parse_document(json.dumps(doc))
    assert "functoriality" in str(exc.value)


def test_missing_cover_restriction(f5):
    doc = {
        "format": "godex/1",
        "field": {"p": 5},
        "poset": {"elements": ["c", "o"], "covers": [["c", "o"]]},
        "sheaf": {"stalks": {"c": {"dims": {"0": 1}, "differentials": {}},
                             "o": {"dims": {"0": 1}, "differentials": {}}},
                  "restrictions": []},
    }
    with pytest.raises(FormatError) as exc:
        parse_document(json.dumps(doc))
    assert "missing restriction" in str(exc.value)


def _mutate(doc, rng):
    """Replace, delete or add one randomly chosen node of a JSON document."""
    junk = [None, True, -1, 0, 2.5, "x", "1/0", "", [], {}, [1, 2], {"a": 1}, [[1]], "a"]
    paths = []

    def walk(node, path):
        paths.append(path)
        items = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for k, v in items:
            walk(v, path + (k,))
    walk(doc, ())
    path = rng.choice(paths[1:])
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    value = json.loads(json.dumps(rng.choice(junk)))
    r = rng.random()
    if r < 0.2 and isinstance(parent, dict):
        del parent[path[-1]]
    elif r < 0.4 and isinstance(parent, dict):
        parent[rng.choice(["k", "-1", "0", "3"])] = value
    else:
        parent[path[-1]] = value


def test_mutated_documents_parse_or_raise_format_errors():
    # malformed input is rejected with a godex error (the CLI's exit 2),
    # never with an internal TypeError, KeyError or AttributeError
    files = sorted((Path(__file__).resolve().parent.parent / "data").glob("*.json"))
    rng = random.Random(2)
    for _ in range(3000):
        doc = json.loads(rng.choice(files).read_text())
        for _ in range(rng.randint(1, 2)):
            _mutate(doc, rng)
        try:
            parse_document(json.dumps(doc))
        except GodexError:
            pass
