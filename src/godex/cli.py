"""Command-line surface.

Exit codes:
  0  pass / computation done;
  1  a check command found a counterexample;
  2  invalid input: a usage error, or a file that cannot be read or parsed;
  3  internal error: a structural invariant failed (`InvariantError`), or an
     unexpected exception, such as a float64 exactness guard, was raised.
Past argument parsing, a failure is one line on stderr, `error: ...` or
`internal error: ...`, never a traceback.  With --format json the output is
a single machine-readable document; identical inputs and seeds produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .complexes import ChainMap, min_certified
from .cosimplicial import check_descent_axioms
from .errors import FormatError, GodexError, InvariantError
from .exactlin import GF
from .filtered import check_descent_axioms_filtered, e_infinity_dims, er_page
from .godement import (
    derived_direct_image, derived_sections, descent_spectral_sequence,
    equivalence_check, godement_resolution, hypercohomology_sheaf,
    stalk_commutation_check, thomason_check,
)
from .oracle import constant_cohomology, holim_replacement
from .problemfile import emit_document, load
from .site import UP_SET_ENUMERATION_CAP, random_poset, random_sheaf


def _require_sheaf(pf):
    """`pf` itself, if the problem file carries a sheaf."""
    if pf.sheaf is None:
        raise FormatError("the file has no sheaf block")
    return pf


def _parse_open(poset, spec: str):
    if spec == "ALL":
        return frozenset(poset.elements)
    if spec in ("EMPTY", ""):
        return frozenset()
    return poset.require_open(spec.split(","))


def _int_in(least: int, most: int | None = None):
    """argparse type for an int of at least `least` and at most `most`;
    anything else is a usage error (exit 2), never a vacuous run or one
    refused after its work."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be an integer <= {most}, got {value}")
        return value
    return parse


_positive_int = _int_in(1)


def _bound(args, sheaf) -> int:
    return args.max_degree if args.max_degree is not None else sheaf.top_degree + 4


def _betti_doc(betti: dict) -> dict:
    return {str(n): b for n, b in sorted(betti.items())}


def _print_table(rows, header=None):
    rows = [list(map(str, r)) for r in rows]
    if header:
        rows.insert(0, list(header))
    if not rows:
        return
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for idx, r in enumerate(rows):
        line = "  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip()
        print(line)
        if header and idx == 0:
            print("  ".join("-" * w for w in widths))


def _emit(args, doc: dict, human):
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        human()


# ---- commands ---------------------------------------------------------------


def cmd_cohomology(args) -> int:
    pf = _require_sheaf(load(args.file))
    N = _bound(args, pf.sheaf)
    U = _parse_open(pf.poset, args.open)
    sec, betti = derived_sections(pf.sheaf, U, N)
    doc = {"command": "cohomology", "open": sorted(map(str, U)),
           "certified_degree": sec.certified_degree, "betti": _betti_doc(betti)}

    def human():
        cert = sec.certified_degree
        print(f"RΓ(U, F) over U = {{{', '.join(sorted(map(str, U)))}}}  "
              f"({'every degree certified' if cert is None else f'certified degree {cert}'})")
        _print_table([(n, b) for n, b in sorted(betti.items())], header=("degree", "betti"))
    _emit(args, doc, human)
    return 0


def cmd_hyper(args) -> int:
    pf = _require_sheaf(load(args.file))
    N = _bound(args, pf.sheaf)
    hyper = hypercohomology_sheaf(pf.sheaf, N)
    stalks = {}
    for x in pf.poset.elements:
        c = hyper.H.stalk(x)
        stalks[x] = {"dims": {str(n): d for n, d in sorted(c.dims.items())},
                     "betti": _betti_doc(c.betti())}
    doc = {"command": "hyper", "certified_degree": N - 1, "stalks": stalks}

    def human():
        print(f"H_X(F), truncated at {N} (certified degree {N - 1})")
        for x, s in stalks.items():
            print(f"stalk {x}: dims {s['dims']}  betti {s['betti']}")
    _emit(args, doc, human)
    return 0


def cmd_resolve(args) -> int:
    pf = _require_sheaf(load(args.file))
    res = godement_resolution(pf.sheaf, args.level)
    res.validate()
    levels = {}
    for p in range(args.level + 1):
        lv = res.level(p)
        levels[str(p)] = {x: {str(n): lv.stalk(x).dim(n) for n in sorted(lv.stalk(x).dims)}
                          for x in pf.poset.elements}
    doc = {"command": "resolve", "levels": levels}

    def human():
        print(f"G^p(F) = T^(p+1)(F) for p = 0..{args.level}; "
              "cosimplicial identities verified")
        for p, per in levels.items():
            print(f"level {p}:")
            for x, dims in per.items():
                print(f"  {x}: dims {dims}")
    _emit(args, doc, human)
    return 0


def cmd_check_thomason(args) -> int:
    pf = _require_sheaf(load(args.file))
    N = _bound(args, pf.sheaf)
    rep = thomason_check(pf.sheaf, N, mode=args.mode)
    doc = {"command": "check-thomason", "verdict": rep.verdict, "mode": rep.mode,
           "certified_degree": rep.certified_degree,
           "witnesses": [[list(w[0]) if isinstance(w[0], tuple) else w[0], w[1]]
                         for w in rep.witnesses]}

    def human():
        word = "holds" if rep.verdict else "FAILS"
        print(f"Thomason descent of H_X(F) {word} "
              f"(mode {rep.mode}, certified degree {rep.certified_degree})")
        for w in rep.witnesses:
            print(f"  counterexample at open {w[0]}, degree {w[1]}")
    _emit(args, doc, human)
    return 0 if rep.verdict else 1


def _theorem_conditions(F, N):
    F.poset.require_enumerable()  # as the Thomason check would, before H_X(F) is built
    hyper = hypercohomology_sheaf(F, N)
    local = equivalence_check(hyper.rho, "local")
    theta = stalk_commutation_check(F, N, hyper=hyper)
    desc = thomason_check(F, N, hyper=hyper)
    return {"local_equivalence": local.verdict,
            "stalk_commutation": theta.verdict,
            "thomason_descent": desc.verdict,
            "mode": desc.mode,
            "certified_degree": min_certified(*(r.certified_degree
                                                for r in (local, theta, desc)))}


def cmd_check_theorem(args) -> int:
    # a flag that the chosen instances do not read is refused, not dropped
    given = [f"--{k.replace('_', '-')}" for k in ("seed", "trials", "poset_size", "max_dim")
             if getattr(args, k) is not None]
    if args.file and given:
        raise GodexError(f"{given[0]} needs random trials, not a problem file")
    if args.max_degree is not None and not args.file:
        raise GodexError("--max-degree needs a problem file; "
                         "random trials truncate at their top degree + 4")
    trials = []
    if args.file:
        pf = _require_sheaf(load(args.file))
        N = _bound(args, pf.sheaf)
        conds = _theorem_conditions(pf.sheaf, N)
        trials.append({"instance": "file", **conds})
    else:
        rng = random.Random(args.seed or 0)
        for t in range(args.trials or 10):
            P = random_poset(rng.randint(1, args.poset_size or 4), rng)
            F = random_sheaf(P, GF(5), rng.randrange(1 << 30), max_dim=args.max_dim or 2, span=2)
            N = _bound(args, F)
            conds = _theorem_conditions(F, N)
            trials.append({"instance": t, "poset_size": len(P.elements), **conds})
    all_pass = all(t["local_equivalence"] and t["stalk_commutation"] and t["thomason_descent"]
                   for t in trials)
    doc = {"command": "check-theorem", "seed": args.seed or 0, "all_pass": all_pass,
           "trials": trials}

    def human():
        _print_table(
            [(t["instance"], t.get("poset_size", "-"), t["local_equivalence"],
              t["stalk_commutation"], t["thomason_descent"], t["mode"],
              t["certified_degree"]) for t in trials],
            header=("trial", "|P|", "rho local", "theta", "thomason", "mode", "certified"))
        print(f"all pass: {all_pass}")
    _emit(args, doc, human)
    return 0 if all_pass else 1


def cmd_check_axioms(args) -> int:
    # a flag that the chosen audit does not read is refused, not dropped
    if args.filtered and args.mutant:
        raise GodexError("--mutant needs the plain audit, not --filtered")
    if args.r is not None and not args.filtered:
        raise GodexError("--r needs --filtered")
    r = (args.r or 0) if args.filtered else None
    if args.filtered:
        rep = check_descent_axioms_filtered(args.seed, trials=args.trials, N=args.bound, r=r)
    else:
        rep = check_descent_axioms(args.seed, trials=args.trials, N=args.bound, mutate=args.mutant)
    trials = [{"trial": t.index, **{k: bool(v) for k, v in sorted(t.results.items())}}
              for t in rep.trials]
    mutant_caught = rep.mutant_note is not None and "fails" in rep.mutant_note
    doc = {"command": "check-axioms", "seed": rep.seed, "filtered": bool(args.filtered),
           "r": r, "all_pass": rep.all_pass, "trials": trials}
    if args.mutant:
        doc["mutant"] = rep.mutant_note

    def human():
        _print_table([(t["trial"], t["S1"], t["S2"], t["S3"], t["S4"], t["S5"])
                      for t in trials],
                     header=("trial", "S1", "S2", "S3", "S4", "S5"))
        print(f"all pass: {rep.all_pass}")
        if args.mutant:
            print(f"negative control: {rep.mutant_note}")
    _emit(args, doc, human)
    if args.mutant and mutant_caught:
        return 1  # the deliberate corruption is a found counterexample
    return 0 if rep.all_pass else 1


def cmd_spectral(args) -> int:
    if args.source == "filtered-file" and (args.open is not None or args.max_degree is not None):
        raise GodexError("--open and --max-degree need --source descent")
    pf = load(args.file)
    if args.source == "filtered-file":
        if pf.filtered_complex is None:
            raise GodexError("no filtered_complex block in the file")
        FC = pf.filtered_complex
        pages = [er_page(FC, r) for r in range(args.r + 1)]
        extra = {"e_infinity": {f"{p},{q}": d
                                for (p, q), d in sorted(e_infinity_dims(FC).items())}}
    else:
        _require_sheaf(pf)
        U = _parse_open(pf.poset, "ALL" if args.open is None else args.open)
        N = _bound(args, pf.sheaf)
        pages, FC, total, _ = descent_spectral_sequence(pf.sheaf, U, args.r, N)
        extra = {"certified_degree": total.certified_degree}
    page_docs = {}
    for page in pages:
        page_docs[str(page.r)] = {f"{p},{q}": d for (p, q), d in sorted(page.dims().items())}
    doc = {"command": "spectral", "source": args.source, "pages": page_docs, **extra}

    def human():
        for rname, dims in page_docs.items():
            print(f"E_{rname}:")
            _print_table([(pq, d) for pq, d in dims.items()], header=("(p,q)", "dim"))
        for k, v in extra.items():
            print(f"{k}: {v}")
    _emit(args, doc, human)
    return 0


def cmd_pushforward(args) -> int:
    pf = _require_sheaf(load(args.file))
    if pf.poset_map is None:
        raise GodexError("no poset_map block in the file")
    N = _bound(args, pf.sheaf)
    img = derived_direct_image(pf.poset_map, pf.sheaf, N)
    stalks = {q: _betti_doc(img.stalk(q).betti()) for q in pf.poset_map.target.elements}
    doc = {"command": "pushforward", "certified_degree": N - 1, "stalks": stalks}

    def human():
        print(f"Rf_*(F) stalkwise betti (certified degree {N - 1})")
        for q, b in stalks.items():
            print(f"  {q}: {b}")
    _emit(args, doc, human)
    return 0


def cmd_oracle(args) -> int:
    pf = _require_sheaf(load(args.file))
    N = _bound(args, pf.sheaf)
    weak = holim_replacement(pf.sheaf, N)
    strict = holim_replacement(pf.sheaf, N, strict=True)
    doc = {"command": "oracle",
           "holim_betti": _betti_doc(weak.betti()),
           "normalized_betti": _betti_doc(strict.betti()),
           "certified_degree": weak.certified_degree}
    constant = None
    F = pf.sheaf
    stalk0 = F.stalk(pf.poset.elements[0])
    # a constant sheaf: one stalk everywhere and every restriction the identity
    if all(F.stalk(x) == stalk0 for x in pf.poset.elements) and \
            all(F.restriction(a, b) == ChainMap.identity(stalk0) for a, b in pf.poset.pairs()):
        constant = constant_cohomology(pf.poset, pf.field, stalk0, N)
        doc["nerve_betti"] = _betti_doc(constant)

    def human():
        print(f"holim replacement betti: {doc['holim_betti']}")
        print(f"normalized (strict chains): {doc['normalized_betti']}")
        if constant is not None:
            print(f"nerve with constant coefficients: {doc['nerve_betti']}")
    _emit(args, doc, human)
    return 0


def cmd_fmt(args) -> int:
    pf = load(args.file)
    sys.stdout.write(emit_document(pf))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="godex",
        description="Exact sheaf cohomology on finite Alexandrov sites via "
                    "Godement resolutions.")
    ap.add_argument("--format", choices=["human", "json"], default="human",
                    help="output mode (json is deterministic, single document)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, max_degree=True):
        p.add_argument("file", help="godex/1 problem file")
        if max_degree:
            p.add_argument("--max-degree", type=int, default=None,
                           help="truncation bound N (default: top degree + 4)")

    p = sub.add_parser("cohomology", help="derived sections RΓ(U, F)")
    p.add_argument("--open", default="ALL", help='open set: "ALL", "EMPTY" or comma list')
    add_common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("hyper", help="the hypercohomology sheaf, stalkwise")
    add_common(p)
    p.set_defaults(func=cmd_hyper)

    p = sub.add_parser("resolve", help="emit the Godement resolution levels")
    p.add_argument("--level", type=_int_in(0), default=2)
    add_common(p, max_degree=False)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("check-thomason", help="Thomason descent of H_X(F)")
    p.add_argument("--mode", choices=["auto", "literal", "reduced"], default="auto")
    add_common(p)
    p.set_defaults(func=cmd_check_thomason)

    p = sub.add_parser("check-theorem",
                       help="fibrant-model conditions: local equivalence, stalk "
                            "commutation, Thomason descent")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--seed", type=int, help="random trials only (default 0)")
    p.add_argument("--poset-size", type=_int_in(1, UP_SET_ENUMERATION_CAP),
                   help="random trials only (default 4)")
    p.add_argument("--max-dim", type=_positive_int, help="random trials only (default 2)")
    p.add_argument("--trials", type=_positive_int, help="random trials only (default 10)")
    p.add_argument("--max-degree", type=int, help="problem file only")
    p.set_defaults(func=cmd_check_theorem)

    p = sub.add_parser("check-axioms", help="descent axioms S1-S5, plain or filtered")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--bound", type=_positive_int, default=5, help="truncation bound N")
    p.add_argument("--filtered", action="store_true")
    p.add_argument("--r", type=_int_in(0), default=None, help="--filtered page index (default 0)")
    p.add_argument("--mutant", choices=["drop_d1_sign"], default=None,
                   help="negative control (plain audit, --bound >= 3): corrupt the total "
                        "differential and report the d∘d failure (exits 1 when caught)")
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("spectral", help="E_r pages of a filtration")
    p.add_argument("--r", type=_int_in(0), default=2, help="compute pages 0..r")
    p.add_argument("--source", choices=["descent", "filtered-file"], default="descent")
    p.add_argument("--open", help='--source descent only: "ALL" (default), "EMPTY" or comma list')
    add_common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("pushforward", help="derived direct image along poset_map")
    add_common(p)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("oracle", help="independent holim/nerve computation")
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fmt", help="canonicalize a problem file")
    add_common(p, max_degree=False)
    p.set_defaults(func=cmd_fmt)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except GodexError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
