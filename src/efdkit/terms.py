"""Abstract syntax, parsing and printing of terms and EFD-sentences over
the three signatures.

An EFD-sentence has the shape ``forall x1 .. xn exists! z1 .. zm : eq & ...``
with every equation between terms of a single signature:

* Group: ``{+, unary -, 0, \\/, /\\}`` plus integer scalars ``k t``.
* Hoop:  ``{+, -., 0}`` plus positive scalars.
* MV:    ``{+, ~, 0}`` plus the derived macros ``\\/ /\\ -. k t  t^k``.

All values are immutable; every function here is pure.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Union

from .record import Record, _set

__all__ = [
    "Signature",
    "Var",
    "Zero",
    "Plus",
    "Neg",
    "Join",
    "Meet",
    "Diff",
    "MVNeg",
    "Scalar",
    "Power",
    "Term",
    "EFDSentence",
    "Identity",
    "ParseError",
    "MAX_DEPTH",
    "MAX_INDEX",
    "SignatureError",
    "ZERO",
    "xvar",
    "zvar",
    "scalar",
    "power",
    "free_vars",
    "max_index",
    "validate_term",
    "parse_term",
    "parse_sentence",
    "print_term",
    "print_sentence",
    "build_t_k",
    "build_delta_k",
    "build_epsilon_k",
    "boolean_marker",
    "is_boolean_marker",
    "term_to_json",
    "sentence_to_json",
]


class Signature(enum.Enum):
    GROUP = "group"
    HOOP = "hoop"
    MV = "mv"


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class SignatureError(ValueError):
    pass


class Var(Record):
    __slots__ = ("kind", "index")
    kind: str  # "x" or "z"
    index: int  # 1-based

    def __init__(self, kind: str, index: int):
        _set(self, "kind", kind)
        _set(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is Var:
            return self.kind == other.kind and self.index == other.index
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.index))


class Zero(Record):
    pass


class _Binary(Record):
    __slots__ = ("left", "right")
    left: Term
    right: Term

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)


class _Unary(Record):
    __slots__ = ("arg",)
    arg: Term

    def __init__(self, arg: Term):
        _set(self, "arg", arg)


class _Multiple(Record):
    __slots__ = ("k", "arg")
    k: int
    arg: Term

    def __init__(self, k: int, arg: Term):
        _set(self, "k", k)
        _set(self, "arg", arg)


class Plus(_Binary):
    __slots__ = ()


class Neg(_Unary):
    __slots__ = ()


class Join(_Binary):
    __slots__ = ()


class Meet(_Binary):
    __slots__ = ()


class Diff(_Binary):
    __slots__ = ()


class MVNeg(_Unary):
    __slots__ = ()


class Scalar(_Multiple):
    __slots__ = ()


class Power(_Multiple):
    __slots__ = ()


Term = Union[Var, Zero, Plus, Neg, Join, Meet, Diff, MVNeg, Scalar, Power]

ZERO = Zero()


def xvar(i: int) -> Var:
    return Var("x", i)


def zvar(i: int) -> Var:
    return Var("z", i)


def scalar(k: int, t: Term) -> Term:
    """Scalar node, collapsing the k = 1 identity case."""
    return t if k == 1 else Scalar(k, t)


def power(k: int, t: Term) -> Term:
    """Power node, collapsing the k = 1 identity case."""
    return t if k == 1 else Power(k, t)


# The node types with children (left, right), and those with one child, arg
_BINARY = frozenset((Plus, Join, Meet, Diff))
_UNARY = frozenset((Neg, MVNeg, Scalar, Power))

_UNSEEN = object()


def fold(t: Term, f: Callable):
    """Bottom-up fold: f(node, *child_values), left child first.

    Every walk over a term goes through here (the term compiler in models
    excepted); a term's depth is bounded by the parser (MAX_DEPTH).  Terms
    may share subterms, as p in the hoop image p + (q -. p) of an MV join,
    so each binary node object is folded once per call: a walk costs about
    the number of distinct nodes, not the size of the term as a tree.
    Leaves and unary nodes, cheap and no source of blow-up alone, are
    folded once per reference."""
    return _walk(t, f, {})


def _walk(t: Term, f: Callable, memo: dict):
    # memo: id -> value of each binary node folded so far (t keeps them alive)
    kind = type(t)
    if kind in _BINARY:
        key = id(t)
        value = memo.get(key, _UNSEEN)
        if value is _UNSEEN:
            value = memo[key] = f(t, _walk(t.left, f, memo), _walk(t.right, f, memo))
        return value
    if kind in _UNARY:
        return f(t, _walk(t.arg, f, memo))
    if kind is Var or kind is Zero:
        return f(t)
    raise TypeError(f"not a term: {t!r}")


def _rebuild(t: Term, children) -> Term:
    """A node of t's type and parameters over new children."""
    if isinstance(t, (Scalar, Power)):
        return type(t)(t.k, *children)
    return type(t)(*children) if children else t


def substitute(t: Term, sub: Callable[[Var], Term]) -> Term:
    """t with every variable v replaced by sub(v)."""
    return fold(t, lambda node, *kids: sub(node) if isinstance(node, Var) else _rebuild(node, kids))


# operations admitted per signature; Scalar/Power constraints checked separately
_ALLOWED = {
    Signature.GROUP: (Var, Zero, Plus, Neg, Join, Meet, Scalar),
    Signature.HOOP: (Var, Zero, Plus, Diff, Scalar),
    Signature.MV: (Var, Zero, Plus, MVNeg, Join, Meet, Diff, Scalar, Power),
}


_NO_VARS: frozenset = frozenset()


def _vars(node, *kids) -> frozenset:
    if len(kids) == 2:
        return kids[0] | kids[1]
    if kids:
        return kids[0]
    return frozenset((node,)) if type(node) is Var else _NO_VARS


def free_vars(t: Term) -> frozenset[Var]:
    return fold(t, _vars)


def _validated_vars(t: Term, sig: Signature) -> frozenset[Var]:
    """free_vars(t), raising SignatureError unless every node of t is
    admitted by sig."""
    allowed = _ALLOWED[sig]

    def check(node, *kids):
        kind = type(node)
        if kind not in allowed:
            raise SignatureError(f"{kind.__name__} not admitted in {sig.value} terms")
        if kind is Var and (node.kind not in ("x", "z") or node.index < 1):
            raise SignatureError(f"bad variable {node.kind}{node.index}")
        if kind is Scalar and sig is not Signature.GROUP and node.k < 0:
            raise SignatureError(f"negative scalar {node.k} only admitted in group terms")
        if kind is Power and node.k < 1:
            raise SignatureError("power exponent must be >= 1")
        return _vars(node, *kids)

    return fold(t, check)


def validate_term(t: Term, sig: Signature) -> None:
    """Raise SignatureError unless every node of t is admitted by sig."""
    _validated_vars(t, sig)


def max_index(t: Term, kind: str) -> int:
    def top(node, *kids):
        if kids:
            return max(kids)
        return node.index if type(node) is Var and node.kind == kind else 0

    return fold(t, top)


# ---------------------------------------------------------------------------
# Sentences


class EFDSentence(Record):
    """forall x1..xn exists! z1..zm : conjunction of equations (m >= 1).

    side_vars, not a field, holds the free variables of each side, per
    equation, as the validation found them."""

    signature: Signature
    n: int
    m: int
    equations: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        if self.m < 1:
            raise SignatureError("EFD-sentence requires m >= 1 (use Identity for m = 0)")
        if not self.equations:
            raise SignatureError("EFD-sentence requires at least one equation")
        side_vars = []
        for lhs, rhs in self.equations:
            sides = []
            for t in (lhs, rhs):
                sides.append(_validated_vars(t, self.signature))
                for v in sides[-1]:
                    bound = self.n if v.kind == "x" else self.m
                    if v.index > bound:
                        raise SignatureError(f"variable {v.kind}{v.index} out of range")
            side_vars.append(tuple(sides))
        _set(self, "side_vars", tuple(side_vars))


class Identity(Record):
    """forall x1..xn : lhs = rhs (the m = 0 axiomatic case)."""

    signature: Signature
    n: int
    equation: tuple[Term, Term]

    def __post_init__(self):
        for t in self.equation:
            for v in _validated_vars(t, self.signature):
                if v.kind != "x" or v.index > self.n:
                    raise SignatureError(f"variable {v.kind}{v.index} out of range")


# ---------------------------------------------------------------------------
# Builders


def build_t_k(k: int) -> Term:
    """t_k(z1) = (k z1 /\\ ~2 z1^2) \\/ z1^k in the MV signature."""
    if k < 1:
        raise ValueError("k must be >= 1")
    z = zvar(1)
    return Join(Meet(scalar(k, z), MVNeg(Scalar(2, Power(2, z)))), power(k, z))


def build_delta_k(k: int, sig: Signature = Signature.GROUP) -> EFDSentence:
    """delta_k: forall x exists! z with k z = x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if sig is Signature.MV:
        raise SignatureError("delta_k lives in the group or hoop signature")
    return EFDSentence(sig, 1, 1, (((scalar(k, zvar(1))), xvar(1)),))


def build_epsilon_k(k: int) -> EFDSentence:
    """epsilon_k: forall x exists! z with t_k(z) = x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return EFDSentence(Signature.MV, 1, 1, ((build_t_k(k), xvar(1)),))


def boolean_marker() -> Identity:
    """The identity forall x : 2x = x."""
    return Identity(Signature.MV, 1, (Scalar(2, xvar(1)), xvar(1)))


def is_boolean_marker(ident: Identity) -> bool:
    lhs, rhs = ident.equation
    return (
        isinstance(rhs, Var)
        and rhs.kind == "x"
        and (
            (isinstance(lhs, Scalar) and lhs.k == 2 and lhs.arg == rhs)
            or (isinstance(lhs, Plus) and lhs.left == rhs and lhs.right == rhs)
        )
    )


# ---------------------------------------------------------------------------
# Parsing

# The deepest term the parser builds, and the most equations a sentence
# holds.  Depth counts every node and every pair of parentheses; each walk
# over a term recurses once per level (fold), so this bounds their stack.
MAX_DEPTH = 200

# The largest variable index the parser accepts.  A sentence over x1..xN
# prints and checks all N variables, so this bounds that work too.
MAX_INDEX = 100

# precedence levels, loosest first; the printer parenthesises by them too
_JOIN_LVL, _MEET_LVL, _SUM_LVL, _PREFIX_LVL, _POWER_LVL, _ATOM_LVL = range(1, 7)

# binary operator tokens: (level, node); binary - builds t + -u
_BINARY_OPS = {
    "\\/": (_JOIN_LVL, Join),
    "/\\": (_MEET_LVL, Meet),
    "+": (_SUM_LVL, Plus),
    "-": (_SUM_LVL, Neg),
    "-.": (_SUM_LVL, Diff),
}


def _too_deep(pos: int) -> ParseError:
    return ParseError(f"term nested deeper than {MAX_DEPTH} levels", pos)


def _var(token: str, pos: int) -> Var:
    """The variable a token such as x12 names; its index is at most MAX_INDEX."""
    digits = token[1:].lstrip("0") or "0"
    if len(digits) > len(str(MAX_INDEX)) or int(digits) > MAX_INDEX:
        raise ParseError(f"variable index above {MAX_INDEX}", pos)
    return Var(token[0], int(digits))


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<forall>forall\b)
      | (?P<exists>exists!)
      | (?P<var>[xz]\d+)
      | (?P<int>\d+)
      | (?P<join>\\/)
      | (?P<meet>/\\)
      | (?P<monus>-\.)
      | (?P<op>[+\-~^()=&:])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0
        self.open = 0  # parentheses and prefix operators open at this point

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, got {tok[1]!r}", tok[2])
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def nest(self, pos: int) -> None:
        """Open one more parenthesis or prefix operator: the term under it
        is at least one level deeper."""
        self.open += 1
        if self.open >= MAX_DEPTH:
            raise _too_deep(pos)

    # Each parse method returns the term and its depth: 1 for a variable or
    # 0, one more than the deepest child for a node, one more than the
    # contents for a parenthesised term.

    # term ::= binary operators by precedence \/ < /\ < (+ - -.), each left
    # associative, over prefix < ^ < atom
    def term(self, min_level: int = _JOIN_LVL) -> tuple[Term, int]:
        t, d = self.prefix()
        while True:
            _, value, pos = self.peek()
            op = _BINARY_OPS.get(value)
            if op is None:
                return t, d
            level, ctor = op
            if ctor is Neg and self.sig is not Signature.GROUP:
                raise ParseError("binary - only admitted in group terms", pos)
            if level < min_level:
                return t, d
            self.i += 1
            u, e = self.term(level + 1)
            if ctor is Neg:  # t - u is t + -u
                u, e, ctor = Neg(u), e + 1, Plus
            d = (d if d > e else e) + 1
            if d > MAX_DEPTH:
                raise _too_deep(pos)
            t = ctor(t, u)

    def prefix(self) -> tuple[Term, int]:
        kind, value, pos = self.peek()
        if kind == "op" and (value == "-" or value == "~"):
            if value == "-" and self.sig is not Signature.GROUP:
                raise ParseError("unary - only admitted in group terms", pos)
            if value == "~" and self.sig is not Signature.MV:
                raise ParseError("~ only admitted in MV terms", pos)
            self.i += 1
            self.nest(pos)
            t, d = self.prefix()
            self.open -= 1
            t = Neg(t) if value == "-" else MVNeg(t)
        elif kind == "int" and value != "0":
            self.i += 1
            t, d = self.postfix()
            t = Scalar(int(value), t)
        else:
            return self.postfix()
        if d >= MAX_DEPTH:
            raise _too_deep(pos)
        return t, d + 1

    def postfix(self) -> tuple[Term, int]:
        t, d = self.atom()
        while self.peek()[1] == "^":
            _, _, pos = self.next()
            if self.sig is not Signature.MV:
                raise ParseError("^ only admitted in MV terms", pos)
            ktok = self.expect("int")
            k = int(ktok[1])
            if k < 1:
                raise ParseError("power exponent must be >= 1", ktok[2])
            if d >= MAX_DEPTH:
                raise _too_deep(pos)
            t, d = Power(k, t), d + 1
        return t, d

    def atom(self) -> tuple[Term, int]:
        kind, value, pos = self.next()
        if kind == "int" and value == "0":
            return ZERO, 1
        if kind == "var":
            return _var(value, pos), 1
        if kind == "op" and value == "(":
            self.nest(pos)
            t, d = self.term()
            self.expect("op", ")")
            self.open -= 1
            if d >= MAX_DEPTH:
                raise _too_deep(pos)
            return t, d + 1
        raise ParseError(f"unexpected token {value!r}", pos)

    def equation(self) -> tuple[Term, Term]:
        lhs, _ = self.term()
        self.expect("op", "=")
        rhs, _ = self.term()
        return (lhs, rhs)

    def var_block(self, kind: str) -> int:
        indices = []
        while self.peek()[0] == "var" and self.peek()[1][0] == kind:
            _, value, pos = self.next()
            indices.append(_var(value, pos).index)
        if indices != list(range(1, len(indices) + 1)):
            raise ParseError(f"{kind}-variables must be listed as {kind}1 {kind}2 ...")
        return len(indices)


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    t, _ = p.term()
    if not p.at_end():
        raise ParseError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    validate_term(t, sig)
    return t


def parse_sentence(text: str, sig: Signature) -> EFDSentence | Identity:
    """Parse ``forall x1 .. exists! z1 .. : eq & eq``.

    The forall block may be absent (n = 0); a sentence without an exists!
    block parses as an Identity.
    """
    p = _Parser(text, sig)
    n = 0
    if p.peek()[0] == "forall":
        p.next()
        n = p.var_block("x")
    m = 0
    if p.peek()[0] == "exists":
        p.next()
        m = p.var_block("z")
        if m == 0:
            raise ParseError("exists! block requires at least one z-variable")
    p.expect("op", ":")
    equations = [p.equation()]
    while p.peek()[0] == "op" and p.peek()[1] == "&":
        _, _, pos = p.next()
        if len(equations) == MAX_DEPTH:
            raise ParseError(f"more than {MAX_DEPTH} equations", pos)
        equations.append(p.equation())
    if not p.at_end():
        raise ParseError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    if m == 0:
        if len(equations) != 1:
            raise ParseError("an identity carries exactly one equation")
        return Identity(sig, n, equations[0])
    return EFDSentence(sig, n, m, tuple(equations))


# ---------------------------------------------------------------------------
# Printing

# binary operators: their text, their level, and the least level at which
# the left and the right child print without parentheses
_INFIX = {
    Join: (" \\/ ", _JOIN_LVL, _JOIN_LVL, _MEET_LVL),
    Meet: (" /\\ ", _MEET_LVL, _MEET_LVL, _SUM_LVL),
    Plus: (" + ", _SUM_LVL, _SUM_LVL, _PREFIX_LVL),
    Diff: (" -. ", _SUM_LVL, _SUM_LVL, _PREFIX_LVL),
}


def _printed(t: Term, *kids: tuple[str, int]) -> tuple[str, int]:
    """The text of t and the precedence level of its top operator."""
    kind = type(t)
    infix = _INFIX.get(kind)
    if infix is not None:
        op, level, left_least, right_least = infix
        (a, a_level), (b, b_level) = kids
        if a_level < left_least:
            a = f"({a})"
        if b_level < right_least:
            b = f"({b})"
        return a + op + b, level
    if kind is Var:
        return f"{t.kind}{t.index}", _ATOM_LVL
    if kind is Zero:
        return "0", _ATOM_LVL
    ((a, a_level),) = kids
    if kind is Power:
        return f"{f'({a})' if a_level < _ATOM_LVL else a}^{t.k}", _POWER_LVL
    if kind is Scalar:
        # negative scalars have no literal syntax; print as negated positive
        sign = "-" if t.k < 0 else ""
        return f"{sign}{abs(t.k)} {f'({a})' if a_level < _POWER_LVL else a}", _PREFIX_LVL
    sign = "-" if kind is Neg else "~"
    return f"{sign}{f'({a})' if a_level < _PREFIX_LVL else a}", _PREFIX_LVL


def print_term(t: Term) -> str:
    return fold(t, _printed)[0]


def print_sentence(phi: EFDSentence | Identity) -> str:
    parts = []
    if phi.n > 0:
        parts.append("forall " + " ".join(f"x{i}" for i in range(1, phi.n + 1)))
    if isinstance(phi, EFDSentence):
        parts.append("exists! " + " ".join(f"z{j}" for j in range(1, phi.m + 1)))
        eqs = phi.equations
    else:
        eqs = (phi.equation,)
    body = " & ".join(f"{print_term(a)} = {print_term(b)}" for a, b in eqs)
    return " ".join(parts) + " : " + body if parts else ": " + body


# ---------------------------------------------------------------------------
# JSON serialization (node-tagged objects)

_TAGS = {Plus: "plus", Join: "join", Meet: "meet", Diff: "diff",
         Neg: "neg", MVNeg: "mvneg", Scalar: "scalar", Power: "power"}


def _json_node(t: Term, *kids: dict) -> dict:
    if isinstance(t, Var):
        return {"op": "var", "kind": t.kind, "index": t.index}
    if isinstance(t, Zero):
        return {"op": "zero"}
    tag = _TAGS[type(t)]
    if len(kids) == 2:
        return {"op": tag, "left": kids[0], "right": kids[1]}
    if isinstance(t, (Scalar, Power)):
        return {"op": tag, "k": t.k, "arg": kids[0]}
    return {"op": tag, "arg": kids[0]}


def term_to_json(t: Term) -> dict:
    return fold(t, _json_node)


def sentence_to_json(phi: EFDSentence | Identity) -> dict:
    if isinstance(phi, Identity):
        lhs, rhs = phi.equation
        return {
            "kind": "identity",
            "signature": phi.signature.value,
            "n": phi.n,
            "equation": {"lhs": term_to_json(lhs), "rhs": term_to_json(rhs)},
        }
    return {
        "kind": "efd",
        "signature": phi.signature.value,
        "n": phi.n,
        "m": phi.m,
        "equations": [
            {"lhs": term_to_json(a), "rhs": term_to_json(b)} for a, b in phi.equations
        ],
    }
