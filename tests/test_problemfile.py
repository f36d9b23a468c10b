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

DATA = Path(__file__).resolve().parent.parent / "data"


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


def test_roundtrip_with_poset_map(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 5, max_dim=2, span=2)
    S = sierpinski_poset()
    m = MonotoneMap(P, S, {"a": "c", "b": "c", "x": "o", "y": "o"})
    pf = ProblemFile(f5, P, F, poset_map=m)
    text = roundtrip(pf)
    pf2 = parse_document(text)
    assert pf2.poset_map.values == m.values


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


@pytest.mark.parametrize("entry, message", [
    ({"from": "x", "to": "a"}, "x->a is not along a cover"),  # reversed
    ({"from": "a", "to": "b"}, "a->b is not along a cover"),  # incomparable
    ({"from": "a", "to": "x"}, "a->x is given twice"),  # duplicate
])
def test_restriction_entries_are_covers_given_once(entry, message):
    # an entry that `fmt` would drop, or one that would replace an earlier
    # entry for the same cover, is refused
    doc = json.loads((DATA / "pseudocircle-constant.json").read_text())
    doc["sheaf"]["restrictions"].append({**entry, "components": {"0": [[2]]}})
    with pytest.raises(FormatError, match=message):
        parse_document(json.dumps(doc))


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
    files = sorted(DATA.glob("*.json"))
    rng = random.Random(2)
    for _ in range(3000):
        doc = json.loads(rng.choice(files).read_text())
        for _ in range(rng.randint(1, 2)):
            _mutate(doc, rng)
        try:
            parse_document(json.dumps(doc))
        except GodexError:
            pass


@pytest.mark.parametrize("key, value, message", [
    ("zz", 0, "must be an integer, got 'zz'"),
    ("3", {}, "must be a JSON array"),
    ("3", None, "must be a JSON array"),
])
def test_falsy_filtration_entries_are_invalid_input(tmp_path, capsys, key, value, message):
    # a falsy basis entry is checked like any other: its degree key must be
    # an integer and its value an array, or `fmt` would drop it without a word
    from godex import cli
    doc = json.loads((DATA / "filtered-example.json").read_text())
    doc["filtered_complex"]["filtration"]["subspaces"]["1"][key] = value
    path = tmp_path / "filtered.json"
    path.write_text(json.dumps(doc))
    for args in (["fmt"], ["--format", "json", "spectral", "--source", "filtered-file"]):
        code = cli.main([*args, str(path)])
        out, err = capsys.readouterr()
        assert code == 2, (args, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (args, err)
        assert message in err and "filtration[1]" in err, (args, err)
    # the control: an empty array, no basis vector in that degree, is allowed
    doc["filtered_complex"]["filtration"]["subspaces"]["1"] = {
        **{k: v for k, v in doc["filtered_complex"]["filtration"]["subspaces"]["1"].items()
           if k != key}, "3": []}
    path.write_text(json.dumps(doc))
    assert cli.main(["fmt", str(path)]) == 0
    assert capsys.readouterr().out == (DATA / "filtered-example.json").read_text()


def _text_with(path, old, new):
    """The compact JSON text of the document at `path`, with its one
    occurrence of `old` replaced by `new`: a way to write what a dict cannot
    hold, such as a key given twice."""
    text = json.dumps(json.loads(path.read_text()))
    assert text.count(old) == 1, old
    return text.replace(old, new)


_CIRCLE = DATA / "pseudocircle-constant.json"
_A_STALK = '"a": {"differentials": {}, "dims": {"0": 1}, "lower_bound": 0}'


@pytest.mark.parametrize("old, new, key", [
    # the second field would win: the file ran over F_3 and exited 0
    ('{"field": {"p": 5}', '{"field": {"p": 5}, "field": {"p": 3}', "field"),
    ('"dims": {"0": 1}, "lower_bound": 0}, "b"', '"dims": {"0": 1, "0": 2}, "lower_bound": 0}, "b"',
     "0"),
    (_A_STALK, f"{_A_STALK}, {_A_STALK}", "a"),
    ('{"components": {"0": [[1]]}, "from": "a", "to": "x"}',
     '{"components": {"0": [[1]]}, "from": "a", "to": "x", "to": "y"}', "to"),
], ids=["top-level", "degree", "stalk", "restriction"])
def test_a_key_given_twice_is_refused(old, new, key):
    # `json` keeps the last of two equal keys, and `fmt` dropped the first;
    # a repeated key at any level is invalid input that names the key
    with pytest.raises(FormatError, match=f'key "{key}" is given twice'):
        parse_document(_text_with(_CIRCLE, old, new))


@pytest.mark.parametrize("path, old, new, message", [
    (_CIRCLE, '"dims": {"0": 1}, "lower_bound": 0}, "b"',
     '"dims": {"00": 5}, "lower_bound": 0}, "b"', "must be written 0, got '00'"),
    (_CIRCLE, '"dims": {"0": 1}, "lower_bound": 0}, "b"',
     '"dims": {"-0": 1}, "lower_bound": 0}, "b"', "must be written 0, got '-0'"),
    # the two keys name one degree: one of them silently won
    (_CIRCLE, '"dims": {"0": 1}, "lower_bound": 0}, "b"',
     '"dims": {"0": 1, "1": 1, "01": 3}, "lower_bound": 0}, "b"', "must be written 1, got '01'"),
    (_CIRCLE, '{"components": {"0": [[1]]}, "from": "a", "to": "x"}',
     '{"components": {"00": [[1]]}, "from": "a", "to": "x"}', "must be written 0, got '00'"),
    (DATA / "filtered-example.json", '"subspaces": {"1": {', '"subspaces": {"01": {',
     "must be written 1, got '01'"),
    (DATA / "filtered-example.json", '"2": {"0": [["1"]]', '"2": {"-0": [["1"]]',
     "must be written 0, got '-0'"),
], ids=["dims-00", "dims--0", "dims-01", "components-00", "filtration-01", "degree--0"])
def test_integer_keys_are_canonical(path, old, new, message):
    # "00", "01" and "-0" were read as 0, 1 and 0, so two keys could name one
    # degree; an integer key is refused unless it is written as str(int)
    with pytest.raises(FormatError, match=message):
        parse_document(_text_with(path, old, new))
    # the control: the canonical document parses
    parse_document(_text_with(path, old, old))
