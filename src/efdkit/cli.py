"""Command-line surface: deterministic JSON output over the parsing,
canonicalization, translation, model-checking, and lattice APIs, plus the
built-in property-suite runner.

Exit codes: 0 success, 1 standard output closed before the answer was
written, 2 input error, 3 unsupported fragment, 4 property failure.
"""

from __future__ import annotations

import functools
import os
import sys
import types

try:  # the json package would import its decoder and scanner too
    from _json import encode_basestring_ascii as _encode_str
except ImportError:
    from json.encoder import encode_basestring_ascii as _encode_str

# The layers are bound as modules and their members read at each call: the
# package registers them lazily, so a query executes only the ones it runs,
# and nothing at module level here reads a layer other than terms.
from . import canonical, geometry, lattice, models, terms, translate
from .errors import DEFAULT_CELL_BUDGET, DEFAULT_SEED, BudgetExceeded, FragmentError

__all__ = ["main", "run"]

SEED_ENV = "EFDKIT_SEED"

# The hoop image of an MV join p \\/ q is p + (q -. p), a DAG that prints as a
# tree twice as large per join: translate --direction mv-hoop prints at most
# this many tree nodes, and exits 3 past it.
MAX_PRINTED_NODES = 10_000

_SIGS = {sig.value: sig for sig in terms.Signature}


class PropertyFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Input helpers


def parse_sentence_spec(text: str, sig: terms.Signature):
    """A sentence given either as a shorthand -- ``delta K``, ``delta K :
    TERM``, ``epsilon K``, ``boolean``, ``absurd`` -- or in full concrete
    syntax."""
    s = text.strip()
    head = s.split(None, 1)
    if head and head[0] == "delta":
        rest = head[1] if len(head) > 1 else ""
        kpart, colon, tpart = rest.partition(":")
        k = terms.parse_integer(kpart, f"delta K needs an integer K, got {s!r}")
        if not colon:
            return terms.build_delta_k(k, sig)
        t = terms.parse_term(tpart, sig)
        if terms.max_index(t, "z"):
            raise FragmentError("delta K : TERM requires t over x-variables")
        equation = (terms.scalar(k, terms.zvar(1)), t)
        return terms.EFDSentence(sig, terms.max_index(t, "x"), 1, (equation,))
    if head and head[0] == "epsilon":
        if sig is not terms.Signature.MV:
            raise FragmentError("epsilon K is an MV shorthand")
        kpart = head[1] if len(head) > 1 else ""
        k = terms.parse_integer(kpart, f"epsilon K needs an integer K, got {s!r}")
        return terms.build_epsilon_k(k)
    if s == "boolean":
        if sig is not terms.Signature.MV:
            raise FragmentError("the boolean marker is an MV shorthand")
        return terms.boolean_marker()
    if s == "absurd":
        return terms.ABSURD
    return terms.parse_sentence(s, sig)


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


def _gather_sentences(args, sig: terms.Signature) -> list:
    return [parse_sentence_spec(spec, sig) for spec in _sentence_specs(args)]


def _sentence_reader(args, message: str):
    """The reader of a command's one sentence.  Its text, the only one of
    _sentence_specs, is taken now, so that a missing or second sentence is
    reported before any later input error; the function returned parses it
    in a signature and refuses with message anything but an EFD-sentence."""
    spec, *rest = _sentence_specs(args)
    if rest:
        raise ValueError(f"{args.command} takes one sentence, got {1 + len(rest)}")

    def read(sig: terms.Signature) -> terms.EFDSentence:
        phi = parse_sentence_spec(spec, sig)
        if not isinstance(phi, terms.EFDSentence):
            raise FragmentError(message)
        return phi

    return read


def _seed_from_env() -> int:
    text = os.environ.get(SEED_ENV, str(DEFAULT_SEED))
    return terms.parse_integer(text, f"{SEED_ENV} must be an integer, got {text!r}")


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append(tuple(terms.parse_integer(c, f"row entry {c.strip()!r} is not an integer")
                          for c in chunk.split(",")))
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
        # the names a term can hold: x or z, index 1..MAX_INDEX as terms._var reads it
        kind, digits = name[0], name[1:].lstrip("0")
        bound = terms.MAX_INDEX
        if not (kind in ("x", "z") and digits.isdecimal() and len(digits) <= len(str(bound))
                and int(digits) <= bound):
            raise ValueError(f"bad variable name {name!r}")
        var = terms.Var(kind, int(digits))
        if var in env:
            raise ValueError(f"variable {name} is assigned more than once")
        value = value.strip()
        if not value:
            raise ValueError(f"assignment {item!r} gives no value (expected NAME=VALUE)")
        env[var] = models.parse_element(a, value)
    return env


def _class_spec(text: str, family: str) -> lattice.AEClass:
    s = text.strip()
    if s in ("trivial", "boolean"):
        return lattice.AEClass(family, s)
    if s.startswith("divisible:"):
        body = s[len("divisible:") :]
        kind, body = ("cofinite", body[3:]) if body.startswith("co:") else ("finite", body)
        primes = lattice.PrimeSet(kind, lattice.parse_primes(body))
        return lattice.AEClass(family, "divisible", primes)
    raise ValueError(f"bad class spec {s!r}")


def _expansion_spec(text: str) -> lattice.LogicExpansion:
    base, _, rest = text.strip().partition(":")
    if rest in ("inconsistent", "classical"):
        return lattice.LogicExpansion(base, special=rest)
    return lattice.LogicExpansion(base, lattice.PrimeSet.finite(lattice.parse_primes(rest)))


# ---------------------------------------------------------------------------
# Output helpers


def _class_json(c: lattice.AEClass) -> dict:
    body = {"family": c.family, "class": c.kind}
    if c.kind == "divisible":
        if c.primes.kind == "finite":
            body["primes"] = sorted(c.primes.primes)
        else:
            body["primes"] = {"cofinite": sorted(c.primes.primes)}
    return body


def _sentence_json(item) -> dict:
    if item == terms.ABSURD:
        return {"marker": "absurd"}
    return {"ast": terms.sentence_to_json(item), "printed": terms.print_sentence(item)}


def _render_text(obj, indent: int = 0) -> str:
    """obj as indented text: a dict entry is headed "key:", a list item "-",
    and a nested value follows its head one level deeper.  An empty list
    prints as [], an empty dict as nothing."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [(f"{key}:", obj[key]) for key in obj]
    elif isinstance(obj, list):
        if not obj:
            return f"{pad}[]"
        items = [("-", value) for value in obj]
    else:
        return f"{pad}{obj}"
    lines = []
    for head, value in items:
        if isinstance(value, (dict, list)):
            lines += (pad + head, _render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{head} {value}")
    return "\n".join(lines)


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
# sampling says so in detail; check/7: delta_{1,t} reduces to delta_1 with
# no cell tests; check/8: one z is solved exactly at each sampled assignment,
# so such a refutation is exact, and a candidate search with more z that
# finds no solution is inconclusive (exit 3); check/9: lex products and
# their cones get structured x-assignments (0, then +-e per coordinate) before
# the random ones; check/10: an exhaustive refutation on two names its
# z-solutions, none or two; check/11, classify/2, reduce/2: k' is read off
# a divisor and a multiple of the gcd of t's values, and the cells are
# refined only where the two disagree, so an input whose cells the cap
# stopped may now get its exact answer; translate/2: co-radical x^k
# translates to k h, not h + ... + h; fulldim/2: the LP runs on the Farkas
# alternative, and the basis is built around the interior point it reads
# off the multipliers; classify/3: the Boolean marker reads either way
# round, so x = 2 x and x = x + x give the Boolean class instead of exit 3;
# check/12: the hoop distance spelling 0 = (k z1 -. t) + (t -. k z1) is
# decided as delta_{k,t}, as with the 0 on the right, instead of sampled
_SCHEMA_VERSIONS = {
    "canon": 3, "check": 12, "classify": 3, "reduce": 2, "translate": 2, "fulldim": 2,
}


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


def _emit(args, payload: dict) -> None:
    """Print payload under the schema of args.command, in args.format, and
    flush it, so that a closed stdout is met inside run."""
    version = _SCHEMA_VERSIONS.get(args.command, 1)
    payload = {"schema": f"efdkit/{args.command}/{version}", **payload}
    print(_json_text(payload) if args.format == "json" else _render_text(payload), flush=True)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_parse(args) -> int:
    sig = _SIGS[args.sig]
    if args.term is not None:
        t = terms.parse_term(args.term, sig)
        payload = {"term": terms.term_to_json(t), "printed": terms.print_term(t)}
    else:
        payload = {"sentences": [_sentence_json(s) for s in _gather_sentences(args, sig)]}
    _emit(args, payload)
    return 0


def _cmd_canon(args) -> int:
    sig = _SIGS[args.sig]
    if sig is not terms.Signature.GROUP:
        raise FragmentError("piecewise canonical forms exist for group terms only")
    t = terms.parse_term(args.term, sig)
    pw = canonical.piecewise_canonical(t, cap=args.cap)
    _emit(args, {"term": terms.print_term(t), "piecewise": pw.to_json()})
    return 0


def _cmd_reduce(args) -> int:
    t = terms.parse_term(args.term, terms.Signature.GROUP)
    kprime = canonical.reduce_delta_kt(canonical.DeltaKT(args.k, t), cap=args.cap)
    _emit(args, {"k": args.k, "term": terms.print_term(t), "k_prime": kprime})
    return 0


def _cmd_classify(args) -> int:
    sig = _SIGS[args.sig]
    items = _gather_sentences(args, sig)
    if sig is terms.Signature.GROUP:
        payload = _class_json(translate.classify_group_sentences(items, cap=args.cap))
    elif sig is terms.Signature.MV:
        mv = translate.classify_mv_sentences(items, cap=args.cap)
        payload = {**_class_json(mv.ae_class), "notes": list(mv.notes)}
    else:
        raise FragmentError("classification is implemented for group and mv inputs")
    _emit(args, payload)
    return 0


def _cmd_translate(args) -> int:
    star = args.direction == "star"
    if args.term is not None:
        if not star or args.sentence or args.file:
            raise ValueError("translate takes --term only with --direction star and no sentence")
        t = terms.parse_term(args.term, terms.Signature.HOOP)
        st = translate.star_term(t)
        payload = {"input": terms.print_term(t), "term": terms.term_to_json(st),
                   "printed": terms.print_term(st)}
    else:
        if star:
            read = _sentence_reader(args, "star translation expects a hoop EFD-sentence")
            phi = read(terms.Signature.HOOP)
            image = translate.star_sentence(phi)
        else:
            read = _sentence_reader(args, "mv-hoop translation expects an MV EFD-sentence")
            phi = read(terms.Signature.MV)
            image = translate.mv_to_hoop(phi)
            size = sum(terms.fold(t, lambda node, *kids: 1 + sum(kids))
                       for eq in image.equations for t in eq)
            if size > MAX_PRINTED_NODES:
                raise BudgetExceeded(
                    f"the hoop image prints {size} term nodes, more than {MAX_PRINTED_NODES}"
                )
        payload = {"input": terms.print_sentence(phi), "sentence": _sentence_json(image)}
    _emit(args, {"direction": args.direction, **payload})
    return 0


def _cmd_decompose(args) -> int:
    phi = _sentence_reader(args, "decomposition expects an MV EFD-sentence")(terms.Signature.MV)
    parts = translate.phi_rad_decompose(phi)
    branches = [{"sign_vector": list(p.sign_vector), "sentence": _sentence_json(p.sentence)}
                for p in parts]
    _emit(args, {"input": terms.print_sentence(phi), "branches": branches})
    return 0


def _cmd_fulldim(args) -> int:
    rows = _parse_rows(args.rows)
    system = geometry.IneqSystem(len(rows[0]), rows)
    res = geometry.is_full_dimensional(system)
    _emit(args, {
        "n": system.n,
        "rows": [list(r) for r in system.rows],
        "full_dimensional": res.full_dimensional,
        "basis": [[str(c) for c in v] for v in res.basis] if res.basis else None,
        "certificate": list(res.certificate) if res.certificate else None,
    })
    return 0


def _cmd_eval(args) -> int:
    a = models.parse_model(args.model)
    t = terms.parse_term(args.term, models.species(a))
    env = _parse_assignment(a, args.assign or "")
    value = models.eval_term(a, t, env)
    _emit(args, {
        "model": models.model_name(a),
        "term": terms.print_term(t),
        "assignment": models.format_assignment(env),
        "value": models.format_element(value),
    })
    return 0


def _cmd_check(args) -> int:
    read = _sentence_reader(args, "check expects an EFD-sentence")
    a = models.parse_model(args.model)
    phi = read(models.species(a))
    verdict = translate.check_sentence(a, phi, args.budget, args.seed,
                                       shortcut=not args.no_shortcut)
    _emit(args, {
        "model": models.model_name(a),
        "sentence": terms.print_sentence(phi),
        "verdict": verdict.to_json(),
    })
    if verdict.status == "falsified":
        raise PropertyFailure(f"{terms.print_sentence(phi)} fails in {models.model_name(a)}")
    if verdict.status == "inconclusive":
        raise FragmentError(
            f"{terms.print_sentence(phi)} is undecided in {models.model_name(a)}: "
            "no candidate z-solution"
        )
    return 0


def _cmd_lattice(args) -> int:
    if args.op == "order":
        relation = lattice.expansion_order(_expansion_spec(args.left), _expansion_spec(args.right))
        payload = {"left": args.left, "right": args.right, "relation": relation}
    else:
        c1 = _class_spec(args.left, args.family)
        c2 = _class_spec(args.right, args.family)
        if args.op == "includes":
            result = lattice.includes(c1, c2)
        else:
            result = _class_json((lattice.meet if args.op == "meet" else lattice.join)(c1, c2))
        payload = {"left": _class_json(c1), "right": _class_json(c2), args.op: result}
    _emit(args, {"op": args.op, **payload})
    return 0


def _cmd_axioms(args) -> int:
    e = lattice.LogicExpansion(args.base, lattice.PrimeSet.finite(lattice.parse_primes(args.primes)))
    axioms = [
        {
            "name": s.name,
            "formula": s.formula,
            "fresh_symbols": list(s.fresh_symbols),
            "structured": s.structured,
            "note": s.note,
        }
        for s in lattice.emit_axioms(e)
    ]
    _emit(args, {"base": args.base, "primes": sorted(e.primes.primes), "axioms": axioms})
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest as selftest_mod  # loads selftest and gen for this command only

    if args.suite == "all":
        reports = selftest_mod.run_all(seed=args.seed, budget=args.budget)
    elif args.suite in selftest_mod.SUITES:
        reports = [selftest_mod.run_suite(args.suite, seed=args.seed, budget=args.budget)]
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    passed = all(r.passed for r in reports)
    _emit(args, {"passed": passed, "suites": [r.to_json() for r in reports]})
    if not passed:
        failed = [r.name for r in reports if not r.passed]
        raise PropertyFailure(f"failing suites: {', '.join(failed)}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _opt(name, kind="str", choices=None, default=None, required=False, help=None):
    """One option-table entry: (name, dest, kind, choices, default,
    required, help).  kind is "str", "int", "flag" (store_true), "append",
    "pos" (a positional) or "pos?" (an optional positional)."""
    return (name, name.lstrip("-").replace("-", "_"), kind, choices, default, required, help)


def _option_int(text: str) -> int:
    """The value of an "int" option, read as every other integer literal."""
    return terms.parse_integer(text, f"invalid int value: {text!r}")


_option_int.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"

_FORMAT = _opt("--format", choices=("json", "text"), default="json")
_SIG = _opt("--sig", choices=tuple(_SIGS), required=True)
_SENTENCES = (_opt("--sentence", "append"), _opt("--file"))
_CAP = _opt("--cap", "int", default=DEFAULT_CELL_BUDGET,
            help="bound on cell tests; reduce and classify refine cells only where "
            "two bounds on the gcd of t's values disagree")
_SEED = _opt("--seed", "int")

# Each subcommand's handler, help line and options, in the order --help
# lists them: the one declaration of the command line, read by both parsers
# below and by run().
_COMMANDS = {
    "parse": (_cmd_parse, "parse a term or sentences and echo ASTs",
              (_FORMAT, _SIG, *_SENTENCES, _opt("--term"))),
    "canon": (_cmd_canon, "piecewise-linear canonical form",
              (_FORMAT, _CAP, _opt("--sig", choices=tuple(_SIGS), default="group"),
               _opt("term", "pos"))),
    "reduce": (_cmd_reduce, "reduce delta_{k,t} to delta_{k'}",
               (_FORMAT, _CAP, _opt("--k", "int", required=True), _opt("--term", required=True))),
    "classify": (_cmd_classify, "canonical AE-class of a sentence set",
                 (_FORMAT, _SIG, *_SENTENCES, _CAP)),
    "translate": (_cmd_translate, "star or mv-to-hoop translation",
                  (_FORMAT, *_SENTENCES,
                   _opt("--direction", choices=("star", "mv-hoop"), required=True),
                   _opt("--term"))),
    "decompose": (_cmd_decompose, "radical decomposition of an MV sentence",
                  (_FORMAT, *_SENTENCES)),
    "fulldim": (_cmd_fulldim, "full-dimensionality of an inequality system",
                (_FORMAT, _opt("--rows", required=True, help='e.g. "1,0;-1,2"'))),
    "eval": (_cmd_eval, "evaluate a term in a witness model",
             (_FORMAT, _opt("--model", required=True), _opt("--term", required=True),
              _opt("--assign", help='e.g. "x1=1/2;x2=(1, -1/3)"'))),
    "check": (_cmd_check, "check a sentence in a witness model",
              (_FORMAT, _SEED, _opt("--budget", "int", default=500), *_SENTENCES,
               _opt("--model", required=True),
               _opt("--no-shortcut", "flag", default=False,
                    help="force the sampled checker even where the classification or "
                    "the exhaustive two-element check decides the sentence"))),
    "lattice": (_cmd_lattice, "AE-class lattice operations",
                (_FORMAT, _opt("--family", choices=("G", "P"), default="G"),
                 _opt("--op", choices=("includes", "meet", "join", "order"), required=True),
                 _opt("--left", required=True), _opt("--right", required=True))),
    "axioms": (_cmd_axioms, "axiom schemas of a logic expansion",
               (_FORMAT, _opt("--base", choices=("bal", "lp"), required=True),
                _opt("--primes", required=True, help='e.g. "2,3"'))),
    "selftest": (_cmd_selftest, "run the property suites",
                 (_FORMAT, _SEED,
                  _opt("--budget", "int",
                       help="samples for a sampled suite; with 'all' it applies to the "
                       "sampled suites only, and a suite that is exhaustive over a fixed "
                       "set rejects it"),
                  _opt("suite", "pos?", default="all"))),
}


def _parse_argv(argv):
    """The attributes that argparse's parse_args(argv) sets, read from the
    option tables, or None where the tables decline argv; argparse then
    parses it or reports the error.  They decline:
    - argv[0] that is not exactly a subcommand;
    - a token starting with "-" that is not exactly an option, a nonempty
      "--option=value" or "--": -h, --help and abbreviations among them;
    - a value or positional starting with "-", unless it is the last token
      and follows "--";
    - a value that _option_int or the choices reject;
    - a missing required option or positional, or too many positionals."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    table = _COMMANDS[argv[0]][2]
    args = {"command": argv[0]}
    options, positionals = {}, []
    for entry in table:
        args[entry[1]] = entry[4]
        if entry[0][0] == "-":
            options[entry[0]] = entry
        else:
            positionals.append(entry)
    given, words = [], []  # (entry, text) of each option in argv order; positionals
    tokens = iter(argv)
    next(tokens)
    for token in tokens:
        if token == "--":  # "-- WORD" may end argv, and WORD is a positional
            word = next(tokens, "--")
            if word == "--" or next(tokens, None) is not None:
                return None
            words.append(word)
            break
        if token[:1] != "-":
            words.append(token)
            continue
        name, eq, value = token.partition("=")
        entry = options.get(name)
        if entry is None or (eq and (entry[2] == "flag" or not value)):
            return None
        if entry[2] == "flag":
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
        given.append((entry, value))
    if len(words) > len(positionals):
        return None
    given += zip(positionals, words)
    for entry, value in given:
        _, dest, kind, choices = entry[:4]
        if kind == "int":
            try:
                value = _option_int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        if kind == "append":
            args[dest] = [*(args[dest] or ()), value]
        else:
            args[dest] = value
    seen = {entry[0] for entry, _ in given}
    if any((entry[5] or entry[2] == "pos") and entry[0] not in seen for entry in table):
        return None
    return types.SimpleNamespace(**args)


# argparse's arguments for each kind of table entry but "str" and "pos"
_ARGPARSE_KINDS = {"int": {"type": _option_int}, "flag": {"action": "store_true"},
                   "append": {"action": "append"}, "pos?": {"nargs": "?"}}


@functools.cache
def _build_parser():
    """argparse's parser of the same option tables, built on first use and
    shared by every later run() in the process; it holds no per-call state.
    It parses the argv that _parse_argv declines, and writes every usage,
    --help and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="efdkit",
        description="Canonicalize, translate, classify, and model-check "
        "EFD-sentences over l-groups, hoops, and perfect MV-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, _, kind, choices, default, required, text in table:
            extra = {"choices": choices, "default": default, "required": required or None,
                     "help": text}
            p.add_argument(name, **_ARGPARSE_KINDS.get(kind, {}),
                           **{key: value for key, value in extra.items() if value is not None})
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_argv(argv) or _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _seed_from_env()
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ValueError(f"--budget must be >= 1, got {args.budget}")
        if getattr(args, "cap", 1) < 1:
            raise ValueError(f"--cap must be >= 1, got {args.cap}")
        return _COMMANDS[args.command][0](args)
    except FragmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PropertyFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader of stdout has gone: the exit flush writes the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # ParseError, SignatureError, ModelError and LatticeError are ValueErrors
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
