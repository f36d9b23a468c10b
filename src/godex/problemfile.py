"""The godex/1 problem-file schema.

A problem file is a single JSON document with a versioned top-level
`"format": "godex/1"` key.  Rationals are serialized as "num/den" strings
(or "num" when integral), F_p entries as integers in [0, p); matrices are
row-major arrays of arrays.  Restriction maps are given once per covering
relation, and for no other pair; the parser composes them along chains and
verifies that the composites are consistent (diamond-shaped posets make this
a real check).  A top-level key outside `_KEYS` is refused, and so are a key
given twice in one object and an integer key not in canonical form.

Serialization is canonical: `fmt` is byte-idempotent and parse∘serialize is
the identity on parsed content.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .complexes import ChainMap, CochainComplex
from .errors import FormatError, InvariantError
from .exactlin import Field, GF, Matrix, QQ
from .filtered import FilteredComplex
from .site import MonotoneMap, Poset, Sheaf

FORMAT_KEY = "godex/1"
# The top-level keys of a document.  Any other key is refused rather than
# ignored, so that `fmt` never drops a block that a command would not read.
_KEYS = ("format", "field", "poset", "sheaf", "poset_map", "filtered_complex")


class ProblemFile:
    """Parsed contents of a godex/1 document."""

    __slots__ = ("field", "poset", "sheaf", "poset_map", "filtered_complex")

    def __init__(self, field, poset, sheaf, poset_map=None, filtered_complex=None):
        self.field = field
        self.poset = poset
        self.sheaf = sheaf
        self.poset_map = poset_map
        self.filtered_complex = filtered_complex


# ---- scalars ---------------------------------------------------------------


def _expect(value, kind, where: str):
    """`value`, which must be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise FormatError(f"{where} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _is_int(v) -> bool:
    """Is `v` a JSON integer?  (A JSON boolean is not one.)"""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_int(v, where: str) -> int:
    if not _is_int(v):
        raise FormatError(f"{where} must be an integer, got {v!r}")
    return v


def _parse_key(k: str, where: str) -> int:
    """An object key that is the canonical decimal string of an integer: no
    leading zero and no sign on 0, so that no two keys of one object name
    the same integer."""
    if not re.fullmatch(r"-?[0-9]+", k):
        raise FormatError(f"{where} must be an integer, got {k!r}")
    if str(int(k)) != k:
        raise FormatError(f"{where} must be written {int(k)}, got {k!r}")
    return int(k)


def _parse_entry(field: Field, v):
    if field.is_rational:
        if isinstance(v, str):
            # ASCII digits only: int() would also take "1_0", " 3", "+2" and "٣"
            m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", v)
            if m is None or (m.group(2) is not None and int(m.group(2)) == 0):
                raise FormatError(f"bad rational entry {v!r}")
            return Fraction(int(m.group(1)), int(m.group(2) or 1))
        if _is_int(v):
            return Fraction(v)
        raise FormatError(f"bad rational entry {v!r}")
    if not _is_int(v):
        raise FormatError(f"bad F_p entry {v!r}")
    return v % field.p


def _emit_entry(field: Field, v):
    if field.is_rational:
        f = Fraction(v)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return int(v)


def _parse_matrix(field: Field, rows: int, cols: int, data, where: str) -> Matrix:
    if not isinstance(data, list) or len(data) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in data):
        raise FormatError(f"matrix at {where} must be {rows}x{cols} row-major")
    return Matrix(field, rows, cols, [[_parse_entry(field, v) for v in row] for row in data])


def _emit_matrix(field: Field, m: Matrix):
    return [[_emit_entry(field, v) for v in row] for row in m.rows_list()]


# ---- sections of the document ----------------------------------------------


def _parse_field(doc) -> Field:
    f = doc.get("field")
    if f == "Q":
        return QQ
    if isinstance(f, dict) and "p" in f:
        try:
            return GF(_parse_int(f["p"], "field.p"))
        except ValueError as e:
            raise FormatError(str(e))
    raise FormatError('field must be "Q" or {"p": prime}')


def _emit_field(field: Field):
    return "Q" if field.is_rational else {"p": field.p}


def _parse_poset(spec, where: str) -> Poset:
    if not isinstance(spec, dict) or "elements" not in spec:
        raise FormatError(f"missing {where}.elements")
    elements = _expect(spec["elements"], list, f"{where}.elements")
    covers = _expect(spec.get("covers", []), list, f"{where}.covers")
    if not all(isinstance(x, str) for x in elements) or \
            not all(isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c)
                    for c in covers):
        raise FormatError(f"{where}: elements must be strings, covers pairs of elements")
    try:
        return Poset(elements, [tuple(c) for c in covers])
    except InvariantError as e:
        raise FormatError(f"invalid poset: {e}")


def _emit_poset(poset: Poset):
    return {"elements": list(poset.elements),
            "covers": [[a, b] for (a, b) in sorted(poset.covers())]}


def _parse_complex(field: Field, spec, where: str) -> CochainComplex:
    _expect(spec, dict, where)
    dims = {}
    for k, v in _expect(spec.get("dims", {}), dict, f"{where}.dims").items():
        n = _parse_key(k, f"{where}.dims key")
        dims[n] = _parse_int(v, f"{where}.dims[{k}]")
        if dims[n] < 0:
            raise FormatError(f"{where}.dims[{k}] is negative")
    lower = _parse_int(spec.get("lower_bound", min(dims) if dims else 0), f"{where}.lower_bound")
    diffs = {}
    for k, data in _expect(spec.get("differentials", {}), dict, f"{where}.differentials").items():
        n = _parse_key(k, f"{where}.differentials key")
        rows, cols = dims.get(n + 1, 0), dims.get(n, 0)
        diffs[n] = _parse_matrix(field, rows, cols, data, f"{where}.differentials[{k}]")
    try:
        return CochainComplex(field, dims, diffs, lower=lower)
    except InvariantError as e:
        raise FormatError(f"invalid complex at {where}: {e}")


def _emit_complex(field: Field, C: CochainComplex):
    out = {"lower_bound": C.lower,
           "dims": {str(n): d for n, d in sorted(C.dims.items())}}
    out["differentials"] = {str(n): _emit_matrix(field, C.d(n))
                            for n in sorted(C.differentials)}
    return out


def _parse_sheaf(field: Field, poset: Poset | None, spec, where: str) -> Sheaf:
    if poset is None:
        raise FormatError(f"{where} requires a poset")
    stalks_spec = _expect(spec, dict, where).get("stalks")
    if not isinstance(stalks_spec, dict):
        raise FormatError(f"missing {where}.stalks")
    for x in poset.elements:
        if x not in stalks_spec:
            raise FormatError(f"{where}.stalks missing element {x!r}")
    for x in stalks_spec:
        if x not in poset:
            raise FormatError(f"{where}.stalks references unknown element {x!r}")
    lower = min((_parse_int(_expect(s, dict, f"{where}.stalks[{x}]").get("lower_bound", 0),
                            f"{where}.stalks[{x}].lower_bound")
                 for x, s in stalks_spec.items()), default=0)
    stalks = {}
    for x, s in stalks_spec.items():
        s = dict(s)
        s["lower_bound"] = lower
        stalks[x] = _parse_complex(field, s, f"{where}.stalks[{x}]")
    covers = set(poset.covers())
    cover_maps = {}
    for item in _expect(spec.get("restrictions", []), list, f"{where}.restrictions"):
        item = _expect(item, dict, f"{where}.restrictions entry")
        a, b = item.get("from"), item.get("to")
        if not isinstance(a, str) or not isinstance(b, str) or a not in poset or b not in poset:
            raise FormatError(f"restriction references unknown elements {a!r}, {b!r}")
        if (a, b) not in covers:
            raise FormatError(f"restriction {a}->{b} is not along a cover of the poset")
        if (a, b) in cover_maps:
            raise FormatError(f"restriction {a}->{b} is given twice")
        comps = {}
        where_ab = f"{where}.restrictions[{a}->{b}]"
        for k, data in _expect(item.get("components", {}), dict, where_ab).items():
            n = _parse_key(k, f"{where_ab} key")
            comps[n] = _parse_matrix(field, stalks[b].dim(n), stalks[a].dim(n), data,
                                     f"{where_ab}[{k}]")
        try:
            cover_maps[(a, b)] = ChainMap(stalks[a], stalks[b], comps)
        except InvariantError as e:
            raise FormatError(f"restriction {a}->{b}: {e}")
    missing = covers - set(cover_maps)
    if missing:
        raise FormatError(f"missing restriction matrices for covers {sorted(missing)}")
    restrictions = _compose_restrictions(poset, stalks, cover_maps)
    try:
        return Sheaf(poset, field, stalks, restrictions)
    except InvariantError as e:
        raise FormatError(f"invalid sheaf at {where}: {e}")


def _compose_restrictions(poset: Poset, stalks, cover_maps):
    """Extend cover restrictions to all pairs; inconsistent composites are a
    schema error (the sheaf axioms cannot hold)."""
    restrictions = dict(cover_maps)
    changed = True
    while changed:
        changed = False
        for (x, y) in poset.pairs():
            if (x, y) in restrictions:
                continue
            for z in poset.elements:
                if z != x and z != y and poset.leq(x, z) and poset.leq(z, y) \
                        and (x, z) in restrictions and (z, y) in restrictions:
                    restrictions[(x, y)] = restrictions[(z, y)].compose(restrictions[(x, z)])
                    changed = True
                    break
    for (x, y) in poset.pairs():
        if (x, y) not in restrictions:
            raise FormatError(f"cannot compose a restriction for {x} <= {y}")
    return restrictions


def _emit_sheaf(field: Field, F: Sheaf):
    out = {"stalks": {x: _emit_complex(field, F.stalk(x)) for x in F.poset.elements}}
    rest = []
    for (a, b) in sorted(F.poset.covers()):
        r = F.restriction(a, b)
        rest.append({"from": a, "to": b,
                     "components": {str(n): _emit_matrix(field, r.component(n))
                                    for n in sorted(r.components)}})
    out["restrictions"] = rest
    return out


def _parse_filtered(field: Field, spec, where: str) -> FilteredComplex:
    base = _parse_complex(field, spec, where)
    filt = spec.get("filtration")
    if not isinstance(filt, dict):
        raise FormatError(f"missing {where}.filtration")
    k_min = _parse_int(filt.get("k_min", 0), f"{where}.filtration.k_min")
    k_max = _parse_int(filt.get("k_max", 0), f"{where}.filtration.k_max")
    if k_min > k_max:
        raise FormatError(f"{where}.filtration: k_min {k_min} exceeds k_max {k_max}")
    bases = {}
    subspaces = _expect(filt.get("subspaces", {}), dict, f"{where}.filtration.subspaces")
    for k, per_degree in subspaces.items():
        index = _parse_key(k, f"{where}.filtration[{k}]")
        if not k_min < index <= k_max:
            raise FormatError(f"{where}.filtration[{k}]: F^{index} lies outside "
                              f"(k_min, k_max] = ({k_min}, {k_max}]")
        for n, data in _expect(per_degree, dict, f"{where}.filtration[{k}]").items():
            at = f"{where}.filtration[{k}][{n}]"
            degree = _parse_key(n, at)
            if not _expect(data, list, at):
                continue  # an empty array: no basis vector in this degree
            cols = len(_expect(data[0], list, at))
            bases[(index, degree)] = _parse_matrix(field, base.dim(degree), cols, data, at)
    try:
        return FilteredComplex.from_bases(base, bases, k_min, k_max)
    except InvariantError as e:
        raise FormatError(f"invalid filtration at {where}: {e}")


def _emit_filtered(field: Field, FC: FilteredComplex):
    out = _emit_complex(field, FC.base)
    subs = {}
    for (k, n), S in sorted(FC.subspaces().items()):
        subs.setdefault(str(k), {})[str(n)] = _emit_matrix(field, S.basis)
    out["filtration"] = {"k_min": FC.k_min, "k_max": FC.k_max, "subspaces": subs}
    return out


# ---- whole documents ---------------------------------------------------------


def _object(pairs) -> dict:
    """A JSON object from its (key, value) pairs, refusing a key given twice,
    of which `json` would keep the last without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f'key "{key}" is given twice in one object')
        obj[key] = value
    return obj


def parse_document(text: str) -> ProblemFile:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise FormatError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_KEY:
        raise FormatError(f'missing or unsupported "format" key (expected "{FORMAT_KEY}")')
    for key in doc:
        if key not in _KEYS:
            raise FormatError(f'unknown top-level key "{key}": a {FORMAT_KEY} document has '
                              f'only {", ".join(_KEYS)}')
    field = _parse_field(doc)
    poset = _parse_poset(doc["poset"], "poset") if "poset" in doc else None
    sheaf = None
    if "sheaf" in doc:
        sheaf = _parse_sheaf(field, poset, doc["sheaf"], "sheaf")
    poset_map = None
    if "poset_map" in doc:
        pm = _expect(doc["poset_map"], dict, "poset_map")
        target = _parse_poset(pm.get("target"), "poset_map.target")
        try:
            poset_map = MonotoneMap(poset, target, pm.get("values", {}))
        except Exception as e:
            raise FormatError(f"invalid poset map: {e}")
    filtered_complex = None
    if "filtered_complex" in doc:
        filtered_complex = _parse_filtered(field, doc["filtered_complex"], "filtered_complex")
    return ProblemFile(field, poset, sheaf, poset_map, filtered_complex)


def emit_document(pf: ProblemFile) -> str:
    doc = {"format": FORMAT_KEY, "field": _emit_field(pf.field)}
    if pf.poset is not None:
        doc["poset"] = _emit_poset(pf.poset)
    if pf.sheaf is not None:
        doc["sheaf"] = _emit_sheaf(pf.field, pf.sheaf)
    if pf.poset_map is not None:
        doc["poset_map"] = {"target": _emit_poset(pf.poset_map.target),
                            "values": dict(sorted(pf.poset_map.values.items()))}
    if pf.filtered_complex is not None:
        doc["filtered_complex"] = _emit_filtered(pf.field, pf.filtered_complex)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load(path: str) -> ProblemFile:
    """Parse the file at `path`; FormatError if it cannot be read as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}")
    return parse_document(text)
