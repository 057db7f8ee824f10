"""Command-line surface: deterministic JSON output over the parsing,
canonicalization, translation, model-checking, and lattice APIs, plus the
built-in property-suite runner.

Exit codes: 0 success, 2 input error, 3 unsupported fragment, 4 property
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .canonical import (
    ABSURD,
    DEFAULT_CELL_BUDGET,
    DeltaKT,
    FragmentError,
    classify_group_sentences,
    piecewise_canonical,
    reduce_delta_kt,
)
from .errors import BudgetExceeded
from .geometry import DEFAULT_SEED, IneqSystem, is_full_dimensional
from .lattice import (
    AEClass,
    LatticeError,
    LogicExpansion,
    PrimeSet,
    boolean_p,
    divisible_g,
    divisible_p,
    emit_axioms,
    expansion_order,
    includes,
    join,
    meet,
    trivial_g,
    trivial_p,
)
from .models import (
    ModelError,
    TwoMV,
    check_sentence_sampled,
    eval_term,
    format_assignment,
    format_element,
    holds_delta_exact,
    model_name,
    parse_element,
    parse_model,
    species,
    Verdict,
)
from .terms import (
    EFDSentence,
    ParseError,
    Signature,
    SignatureError,
    Var,
    boolean_marker,
    build_delta_k,
    build_epsilon_k,
    max_index,
    parse_sentence,
    parse_term,
    print_sentence,
    print_term,
    scalar,
    sentence_to_json,
    term_to_json,
    xvar,
    zvar,
)
from .translate import (
    _NoUniqueSolution,
    check_in_two,
    classify_mv_sentences,
    mv_to_hoop,
    phi_rad_decompose,
    sentence_deltas,
    star_sentence,
    star_term,
)

__all__ = ["main", "run"]

SEED_ENV = "EFDKIT_SEED"

_SIGS = {"group": Signature.GROUP, "hoop": Signature.HOOP, "mv": Signature.MV}


class PropertyFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Input helpers


def _sig(name: str) -> Signature:
    if name not in _SIGS:
        raise ValueError(f"unknown signature {name!r}")
    return _SIGS[name]


def parse_sentence_spec(text: str, sig: Signature):
    """A sentence given either as a shorthand -- ``delta K``, ``delta K :
    TERM``, ``epsilon K``, ``boolean``, ``absurd`` -- or in full concrete
    syntax."""
    s = text.strip()
    head = s.split(None, 1)
    if head and head[0] == "delta":
        rest = head[1] if len(head) > 1 else ""
        if ":" in rest:
            kpart, tpart = rest.split(":", 1)
            k = int(kpart)
            t = parse_term(tpart, sig)
            if max_index(t, "z"):
                raise FragmentError("delta K : TERM requires t over x-variables")
            n = max_index(t, "x")
            return EFDSentence(sig, n, 1, ((scalar(k, zvar(1)), t),))
        return build_delta_k(int(rest), sig)
    if head and head[0] == "epsilon":
        if sig is not Signature.MV:
            raise FragmentError("epsilon K is an MV shorthand")
        if len(head) < 2:
            raise ValueError(f"epsilon K needs an integer K, got {s!r}")
        return build_epsilon_k(int(head[1]))
    if s == "boolean":
        if sig is not Signature.MV:
            raise FragmentError("the boolean marker is an MV shorthand")
        return boolean_marker()
    if s == "absurd":
        return ABSURD
    return parse_sentence(s, sig)


def _sentence_specs(args) -> list[str]:
    """The --sentence texts, then the non-blank, non-comment lines of --file."""
    specs = list(args.sentence or [])
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    specs.append(line)
    if not specs:
        raise ValueError("no sentences given (use --sentence and/or --file)")
    return specs


def _gather_sentences(args, sig: Signature) -> list:
    return [parse_sentence_spec(spec, sig) for spec in _sentence_specs(args)]


def _seed_from_env() -> int:
    text = os.environ.get(SEED_ENV, str(DEFAULT_SEED))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {text!r}") from None


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append(tuple(int(c) for c in chunk.split(",")))
    if not rows:
        raise ValueError("no rows given")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("rows must all have the same length")
    return tuple(rows)


def _parse_assignment(a, text: str) -> dict:
    env = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"assignment {item!r} names no variable")
        kind, index = name[0], name[1:]
        if kind not in ("x", "z") or not index.isdigit():
            raise ValueError(f"bad variable name {name!r}")
        var = Var(kind, int(index))
        if var in env:
            raise ValueError(f"variable {name} is assigned more than once")
        env[var] = parse_element(a, value.strip())
    return env


def _class_spec(text: str, family: str) -> AEClass:
    s = text.strip()
    if s == "trivial":
        return trivial_g() if family == "G" else trivial_p()
    if s == "boolean":
        return boolean_p()
    if s.startswith("divisible:"):
        body = s[len("divisible:") :]
        if body.startswith("co:"):
            ps = PrimeSet.cofinite(_parse_primes(body[3:]))
        else:
            ps = PrimeSet.finite(_parse_primes(body))
        return divisible_g(ps) if family == "G" else divisible_p(ps)
    raise ValueError(f"bad class spec {s!r}")


def _parse_primes(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(p) for p in text.split(","))


def _expansion_spec(text: str) -> LogicExpansion:
    base, _, rest = text.strip().partition(":")
    if rest in ("inconsistent", "classical"):
        return LogicExpansion(base, special=rest)
    return LogicExpansion(base, PrimeSet.finite(_parse_primes(rest)))


# ---------------------------------------------------------------------------
# Output helpers


def _class_json(c: AEClass) -> dict:
    body = {"family": c.family, "class": c.kind}
    if c.kind == "divisible":
        if c.primes.kind == "finite":
            body["primes"] = sorted(c.primes.primes)
        else:
            body["primes"] = {"cofinite": sorted(c.primes.primes)}
    return body


def _sentence_json(item) -> dict:
    if item == ABSURD:
        return {"marker": "absurd"}
    return {"ast": sentence_to_json(item), "printed": print_sentence(item)}


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
        return "\n".join(lines) if lines else f"{pad}[]"
    return f"{pad}{obj}"


# A command's schema version rises when its output for the same argv changes;
# every command not named here is at version 1.
# canon/3: cells refined over the term itself, so a negation above a join
# or meet lists the same pieces in another order; check/2: status "holds"
# for an exact pass, structured witnesses, the procedure in detail; check/3:
# a cone is decided by the classification of the star image of its hoop
# delta_{k,t} instead of sampled; check/4: a budget on cell tests replaces
# the cap on leaf forms, so sentences the cap sent to sampling are decided
# exactly; check/5: the trivial class is decided on Gamma models, not
# sampled; check/6: a sentence that a classification budget sent to
# sampling says so in detail; translate/2: a co-radical power x^k translates to k h, not
# h + ... + h
_SCHEMA_VERSIONS = {"canon": 3, "check": 6, "translate": 2}


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, out: list, pad: str) -> None:
    """Append value's JSON text to out, byte for byte what
    ``json.dumps(value, sort_keys=True, indent=2)`` writes at indentation
    pad, in one pass: with indent set, json runs its pure-Python generator
    encoder.  Keys are str and values str, None, bool, int, list, tuple or
    dict, all that efdkit's exact output holds; anything else, a float
    included, raises TypeError."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(value[key], out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    out: list[str] = []
    _write_json(value, out, "")
    return "".join(out)


def _emit(args, command: str, payload: dict) -> None:
    version = _SCHEMA_VERSIONS.get(command, 1)
    payload = {"schema": f"efdkit/{command}/{version}", **payload}
    if args.format == "json":
        print(_json_text(payload))
    else:
        print(_render_text(payload))


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_parse(args) -> int:
    sig = _sig(args.sig)
    if args.term is not None:
        t = parse_term(args.term, sig)
        _emit(args, "parse", {"term": term_to_json(t), "printed": print_term(t)})
        return 0
    items = _gather_sentences(args, sig)
    _emit(args, "parse", {"sentences": [_sentence_json(s) for s in items]})
    return 0


def _cmd_canon(args) -> int:
    sig = _sig(args.sig)
    if sig is not Signature.GROUP:
        raise FragmentError("piecewise canonical forms exist for group terms only")
    t = parse_term(args.term, sig)
    pw = piecewise_canonical(t, cap=args.cap)
    _emit(args, "canon", {"term": print_term(t), "piecewise": pw.to_json()})
    return 0


def _cmd_reduce(args) -> int:
    t = parse_term(args.term, Signature.GROUP)
    kprime = reduce_delta_kt(DeltaKT(args.k, t), cap=args.cap)
    _emit(args, "reduce", {"k": args.k, "term": print_term(t), "k_prime": kprime})
    return 0


def _cmd_classify(args) -> int:
    sig = _sig(args.sig)
    items = _gather_sentences(args, sig)
    if sig is Signature.GROUP:
        result = classify_group_sentences(items, cap=args.cap)
        _emit(args, "classify", _class_json(result))
        return 0
    if sig is Signature.MV:
        mv = classify_mv_sentences(items, cap=args.cap)
        payload = _class_json(mv.ae_class)
        payload["notes"] = list(mv.notes)
        _emit(args, "classify", payload)
        return 0
    raise FragmentError("classification is implemented for group and mv inputs")


def _cmd_translate(args) -> int:
    if args.direction == "star":
        if args.term is not None:
            t = parse_term(args.term, Signature.HOOP)
            st = star_term(t)
            _emit(
                args,
                "translate",
                {
                    "direction": "star",
                    "input": print_term(t),
                    "term": term_to_json(st),
                    "printed": print_term(st),
                },
            )
            return 0
        phi = parse_sentence_spec(_sentence_specs(args)[0], Signature.HOOP)
        if not isinstance(phi, EFDSentence):
            raise FragmentError("star translation expects a hoop EFD-sentence")
        _emit(
            args,
            "translate",
            {
                "direction": "star",
                "input": print_sentence(phi),
                "sentence": _sentence_json(star_sentence(phi)),
            },
        )
        return 0
    phi = parse_sentence_spec(_sentence_specs(args)[0], Signature.MV)
    if not isinstance(phi, EFDSentence):
        raise FragmentError("mv-hoop translation expects an MV EFD-sentence")
    hoop = mv_to_hoop(phi)
    _emit(
        args,
        "translate",
        {
            "direction": "mv-hoop",
            "input": print_sentence(phi),
            "sentence": _sentence_json(hoop),
        },
    )
    return 0


def _cmd_decompose(args) -> int:
    phi = parse_sentence_spec(_sentence_specs(args)[0], Signature.MV)
    if not isinstance(phi, EFDSentence):
        raise FragmentError("decomposition expects an MV EFD-sentence")
    parts = phi_rad_decompose(phi)
    _emit(
        args,
        "decompose",
        {
            "input": print_sentence(phi),
            "branches": [
                {
                    "sign_vector": list(p.sign_vector),
                    "sentence": _sentence_json(p.sentence),
                }
                for p in parts
            ],
        },
    )
    return 0


def _cmd_fulldim(args) -> int:
    rows = _parse_rows(args.rows)
    system = IneqSystem(len(rows[0]), rows)
    res = is_full_dimensional(system)
    payload = {
        "n": system.n,
        "rows": [list(r) for r in system.rows],
        "full_dimensional": res.full_dimensional,
        "basis": [[format_element(c) for c in v] for v in res.basis] if res.basis else None,
        "certificate": list(res.certificate) if res.certificate else None,
    }
    _emit(args, "fulldim", payload)
    return 0


def _cmd_eval(args) -> int:
    a = parse_model(args.model)
    t = parse_term(args.term, species(a))
    env = _parse_assignment(a, args.assign or "")
    value = eval_term(a, t, env)
    _emit(
        args,
        "eval",
        {
            "model": model_name(a),
            "term": print_term(t),
            "assignment": format_assignment(env),
            "value": format_element(value),
        },
    )
    return 0


def _exact_check(a, phi: EFDSentence) -> Verdict | None:
    """Decide phi in a exactly, or None for the sampled checker (sentences
    outside the classifier's fragment; a BudgetExceeded of the classifier
    propagates, so that the caller can name the budget).  The two-element
    model is checked exhaustively; a group, cone or Gamma model satisfies phi iff it is
    k'-divisible for the k' of every delta_{k,t} of phi (the classification;
    a hoop sentence on a cone through its star image, and no Gamma model
    satisfies an MV sentence in the trivial class)."""
    try:
        if isinstance(a, TwoMV):
            two = check_in_two(phi)
            detail = f"exhaustive over {{0,1}}^{phi.n}"
            if two.holds:
                return Verdict("holds", True, None, detail)
            ebar = {xvar(i): b for i, b in enumerate(two.failing, start=1)}
            return Verdict("falsified", True, (ebar, []), f"{detail}: no unique z-solution")
        kprimes = sorted({reduce_delta_kt(d) for d in sentence_deltas(phi)})
    except _NoUniqueSolution as exc:
        detail = f"classification: trivial, no unique two-element solution at e-bar = {exc.failing}"
        return Verdict("falsified", True, None, detail)
    except BudgetExceeded:
        raise
    except FragmentError:
        return None
    holds = all(holds_delta_exact(a, k) for k in kprimes)
    detail = "classification: " + ", ".join(f"delta_{k}" for k in kprimes)
    return Verdict("holds" if holds else "falsified", True, None, detail)


def _cmd_check(args) -> int:
    spec = _sentence_specs(args)[0]
    a = parse_model(args.model)
    phi = parse_sentence_spec(spec, species(a))
    if not isinstance(phi, EFDSentence):
        raise FragmentError("check expects an EFD-sentence")
    verdict = over_budget = None
    if not args.no_shortcut:
        try:
            verdict = _exact_check(a, phi)
        except BudgetExceeded as exc:
            over_budget = exc
    if verdict is None:
        budget = 500 if args.budget is None else args.budget
        verdict = check_sentence_sampled(a, phi, budget=budget, seed=args.seed)
    if over_budget is not None:
        detail = f"{verdict.detail} (classification over budget: {over_budget})"
        verdict = Verdict(verdict.status, verdict.exact, verdict.witness, detail)
    _emit(
        args,
        "check",
        {
            "model": model_name(a),
            "sentence": print_sentence(phi),
            "verdict": verdict.to_json(),
        },
    )
    if verdict.status == "falsified":
        raise PropertyFailure(f"{print_sentence(phi)} fails in {model_name(a)}")
    return 0


def _cmd_lattice(args) -> int:
    if args.op == "order":
        e1 = _expansion_spec(args.left)
        e2 = _expansion_spec(args.right)
        _emit(
            args,
            "lattice",
            {"op": "order", "left": args.left, "right": args.right,
             "relation": expansion_order(e1, e2)},
        )
        return 0
    c1 = _class_spec(args.left, args.family)
    c2 = _class_spec(args.right, args.family)
    if args.op == "includes":
        result = {"includes": includes(c1, c2)}
    elif args.op == "meet":
        result = {"meet": _class_json(meet(c1, c2))}
    else:
        result = {"join": _class_json(join(c1, c2))}
    _emit(
        args,
        "lattice",
        {"op": args.op, "left": _class_json(c1), "right": _class_json(c2), **result},
    )
    return 0


def _cmd_axioms(args) -> int:
    e = LogicExpansion(args.base, PrimeSet.finite(_parse_primes(args.primes)))
    schemas = emit_axioms(e)
    _emit(
        args,
        "axioms",
        {
            "base": args.base,
            "primes": sorted(e.primes.primes),
            "axioms": [
                {
                    "name": s.name,
                    "formula": s.formula,
                    "fresh_symbols": list(s.fresh_symbols),
                    "structured": s.structured,
                    "note": s.note,
                }
                for s in schemas
            ],
        },
    )
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest as selftest_mod  # loads selftest and gen for this command only

    if args.suite == "all":
        reports = selftest_mod.run_all(seed=args.seed, budget=args.budget)
    elif args.suite in selftest_mod.SUITES:
        reports = [selftest_mod.run_suite(args.suite, seed=args.seed, budget=args.budget)]
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    _emit(
        args,
        "selftest",
        {
            "passed": all(r.passed for r in reports),
            "suites": [r.to_json() for r in reports],
        },
    )
    if not all(r.passed for r in reports):
        failed = [r.name for r in reports if not r.passed]
        raise PropertyFailure(f"failing suites: {', '.join(failed)}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    run() in the process; it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="efdkit",
        description="Canonicalize, translate, classify, and model-check "
        "EFD-sentences over l-groups, hoops, and perfect MV-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sig=False, sentences=False, cap=False, sampled=False, budget_help=None):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if sampled:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--budget", type=int, default=None, help=budget_help)
        if sig:
            p.add_argument("--sig", choices=tuple(_SIGS), required=True)
        if sentences:
            p.add_argument("--sentence", action="append")
            p.add_argument("--file")
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CELL_BUDGET)

    p = sub.add_parser("parse", help="parse a term or sentences and echo ASTs")
    common(p, sig=True, sentences=True)
    p.add_argument("--term")

    p = sub.add_parser("canon", help="piecewise-linear canonical form")
    common(p, cap=True)
    p.add_argument("--sig", choices=tuple(_SIGS), default="group")
    p.add_argument("term")

    p = sub.add_parser("reduce", help="reduce delta_{k,t} to delta_{k'}")
    common(p, cap=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--term", required=True)

    p = sub.add_parser("classify", help="canonical AE-class of a sentence set")
    common(p, sig=True, sentences=True, cap=True)

    p = sub.add_parser("translate", help="star or mv-to-hoop translation")
    common(p, sentences=True)
    p.add_argument("--direction", choices=("star", "mv-hoop"), required=True)
    p.add_argument("--term")

    p = sub.add_parser("decompose", help="radical decomposition of an MV sentence")
    common(p, sentences=True)

    p = sub.add_parser("fulldim", help="full-dimensionality of an inequality system")
    common(p)
    p.add_argument("--rows", required=True, help='e.g. "1,0;-1,2"')

    p = sub.add_parser("eval", help="evaluate a term in a witness model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--assign", help='e.g. "x1=1/2;x2=(1, -1/3)"')

    p = sub.add_parser("check", help="check a sentence in a witness model")
    common(p, sentences=True, sampled=True)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--no-shortcut",
        action="store_true",
        help="force the sampled checker even where the classification or "
        "the exhaustive two-element check decides the sentence",
    )

    p = sub.add_parser("lattice", help="AE-class lattice operations")
    common(p)
    p.add_argument("--family", choices=("G", "P"), default="G")
    p.add_argument("--op", choices=("includes", "meet", "join", "order"), required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("axioms", help="axiom schemas of a logic expansion")
    common(p)
    p.add_argument("--base", choices=("bal", "lp"), required=True)
    p.add_argument("--primes", required=True, help='e.g. "2,3"')

    p = sub.add_parser("selftest", help="run the property suites")
    common(
        p,
        sampled=True,
        budget_help="samples for a sampled suite; with 'all' it applies to the "
        "sampled suites only, and a suite that is exhaustive over a fixed set "
        "rejects it",
    )
    p.add_argument("suite", nargs="?", default="all")

    return parser


_DISPATCH = {
    "parse": _cmd_parse,
    "canon": _cmd_canon,
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "translate": _cmd_translate,
    "decompose": _cmd_decompose,
    "fulldim": _cmd_fulldim,
    "eval": _cmd_eval,
    "check": _cmd_check,
    "lattice": _cmd_lattice,
    "axioms": _cmd_axioms,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _seed_from_env()
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ValueError(f"--budget must be >= 1, got {args.budget}")
        if getattr(args, "cap", 1) < 1:
            raise ValueError(f"--cap must be >= 1, got {args.cap}")
        return _DISPATCH[args.command](args)
    except FragmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PropertyFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 4
    except (
        ParseError,
        SignatureError,
        ModelError,
        LatticeError,
        ValueError,
        KeyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
