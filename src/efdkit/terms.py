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

try:  # the json package would import its decoder and scanner too
    from _json import encode_basestring_ascii as _encode_str
except ImportError:
    from json.encoder import encode_basestring_ascii as _encode_str

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
    "max_index",
    "parse_integer",
    "parse_term",
    "parse_sentence",
    "print_term",
    "printed_depth",
    "print_sentence",
    "build_t_k",
    "build_delta_k",
    "build_epsilon_k",
    "ABSURD",
    "boolean_marker",
    "is_boolean_marker",
    "term_to_json",
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
# the ten term node types, which no other value is an instance of
TERM_TYPES = frozenset((Var, Zero, *_BINARY, *_UNARY))

_UNSEEN = object()


def fold(t: Term, f: Callable):
    """Bottom-up fold: f(node, *child_values), left child first.

    Every walk over a term goes through here; a term's depth is bounded by
    the parser (MAX_DEPTH).  Terms may share subterms, as p in the hoop
    image p + (q -. p) of an MV join, so each binary node object is folded
    once per call: a walk costs about the number of distinct nodes, not the
    size of the term as a tree.  Leaves and unary nodes, cheap and no
    source of blow-up alone, are folded once per reference."""
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


# the operation nodes of each signature, in the order gen.random_term draws them
_NODES = {
    Signature.GROUP: (Plus, Neg, Join, Meet, Scalar),
    Signature.HOOP: (Plus, Diff, Scalar),
    Signature.MV: (Plus, MVNeg, Join, Meet, Diff, Scalar, Power),
}
# nodes admitted per signature; Scalar/Power constraints checked separately
_ALLOWED = {sig: frozenset((Var, Zero, *nodes)) for sig, nodes in _NODES.items()}


def _checked_var(v: Var, bounds: dict) -> Var:
    """v, if it is an x- or z-variable with index in 1..bounds[v.kind]."""
    bound = bounds.get(v.kind)
    if bound is None or v.index < 1:
        raise SignatureError(f"bad variable {v.kind}{v.index}")
    if v.index > bound:
        raise SignatureError(f"variable {v.kind}{v.index} out of range")
    return v


def _validate(t: Term, sig: Signature, n: int, m: int) -> None:
    """Raise SignatureError at the leftmost node of t, in fold order, that
    sig does not admit or that is a variable outside x1..xn, z1..zm."""
    allowed = _ALLOWED[sig]
    bounds = {"x": n, "z": m}

    def check(node, *kids):
        kind = type(node)
        if kind is Var:
            _checked_var(node, bounds)
        elif kind not in allowed:
            raise SignatureError(f"{kind.__name__} not admitted in {sig.value} terms")
        elif kind is Scalar and sig is not Signature.GROUP and node.k < 0:
            raise SignatureError(f"negative scalar {node.k} only admitted in group terms")
        elif kind is Power and node.k < 1:
            raise SignatureError("power exponent must be >= 1")

    fold(t, check)


def max_index(t: Term, kind: str) -> int:
    def top(node, *kids):
        if kids:
            return max(kids)
        return node.index if type(node) is Var and node.kind == kind else 0

    return fold(t, top)


# ---------------------------------------------------------------------------
# Sentences


class EFDSentence(Record):
    """forall x1..xn exists! z1..zm : conjunction of equations (m >= 1)."""

    signature: Signature
    n: int
    m: int
    equations: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        if self.m < 1:
            raise SignatureError("EFD-sentence requires m >= 1 (use Identity for m = 0)")
        if not self.equations:
            raise SignatureError("EFD-sentence requires at least one equation")
        for lhs, rhs in self.equations:
            _validate(lhs, self.signature, self.n, self.m)
            _validate(rhs, self.signature, self.n, self.m)


class Identity(Record):
    """forall x1..xn : lhs = rhs (the m = 0 axiomatic case)."""

    signature: Signature
    n: int
    equation: tuple[Term, Term]

    def __post_init__(self):
        for t in self.equation:
            _validate(t, self.signature, self.n, 0)


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


ABSURD = "absurd"  # explicit marker producing the Trivial class


def boolean_marker() -> Identity:
    """The identity forall x : 2x = x."""
    return Identity(Signature.MV, 1, (Scalar(2, xvar(1)), xvar(1)))


def is_boolean_marker(ident: Identity) -> bool:
    """Whether ident is 2 x = x, or x + x = x, either way round."""
    return any(
        isinstance(x, Var)
        and x.kind == "x"
        and (
            (isinstance(double, Scalar) and double.k == 2 and double.arg == x)
            or (isinstance(double, Plus) and double.left == x and double.right == x)
        )
        for double, x in (ident.equation, ident.equation[::-1])
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


_INTEGER_RE = re.compile(r"-?\d+")


def parse_integer(text: str, message: str) -> int:
    """The integer that text spells as the int token with an optional
    leading -, between blanks, else ParseError(message).  Past the
    interpreter's digit limit, int's own ValueError names the limit."""
    s = text.strip()
    if _INTEGER_RE.fullmatch(s) is None:
        raise ParseError(message)
    return int(s)


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
        self.allowed = _ALLOWED[sig]
        self.bounds = {"x": MAX_INDEX, "z": MAX_INDEX}  # a sentence's n and m, once read
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
            if ctor not in self.allowed:
                if ctor is Neg:
                    raise ParseError("binary - only admitted in group terms", pos)
                raise SignatureError(f"{ctor.__name__} not admitted in {self.sig.value} terms")
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
            if value == "-" and Neg not in self.allowed:
                raise ParseError("unary - only admitted in group terms", pos)
            if value == "~" and MVNeg not in self.allowed:
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
            if Power not in self.allowed:
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
            return _checked_var(_var(value, pos), self.bounds), 1
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
    p.bounds = {"x": n, "z": m}
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

# binary operators, as the parser reads them: their text and their level
_INFIX = {ctor: (f" {text} ", level) for text, (level, ctor) in _BINARY_OPS.items()
          if ctor is not Neg}
# unary operators: their level and the least level at which their argument
# prints without parentheses
_PREFIXED = {
    Neg: (_PREFIX_LVL, _PREFIX_LVL),
    MVNeg: (_PREFIX_LVL, _PREFIX_LVL),
    Scalar: (_PREFIX_LVL, _POWER_LVL),
    Power: (_POWER_LVL, _ATOM_LVL),
}


def _printed(t: Term, *kids: tuple[str, int]) -> tuple[str, int]:
    """The text of t and the precedence level of its top operator.  The
    binary operators associate to the left: a left child prints bare at
    the operator's level or above, a right child only above it."""
    kind = type(t)
    infix = _INFIX.get(kind)
    if infix is not None:
        op, level = infix
        (a, a_level), (b, b_level) = kids
        if a_level < level:
            a = f"({a})"
        if b_level <= level:
            b = f"({b})"
        return a + op + b, level
    if kind is Var:
        return f"{t.kind}{t.index}", _ATOM_LVL
    if kind is Zero:
        return "0", _ATOM_LVL
    ((a, a_level),) = kids
    level, least = _PREFIXED[kind]
    if a_level < least:
        a = f"({a})"
    if kind is Power:
        return f"{a}^{t.k}", level
    if kind is Scalar:
        # negative scalars have no literal syntax; print as negated positive
        return f"{'-' if t.k < 0 else ''}{abs(t.k)} {a}", level
    return ("-" if kind is Neg else "~") + a, level


def _printed_depth(t: Term, *kids: tuple[int, int]) -> tuple[int, int]:
    """The depth that the parser gives the text _printed writes for t, and
    the level of its top operator: one level per node and per pair of
    parentheses _printed writes, and one for the - of a negative scalar,
    which reads back as a negation."""
    kind = type(t)
    infix = _INFIX.get(kind)
    if infix is not None:
        level = infix[1]
        (a, a_level), (b, b_level) = kids
        a += a_level < level
        b += b_level <= level
        return (a if a > b else b) + 1, level
    if kind is Var or kind is Zero:
        return 1, _ATOM_LVL
    ((a, a_level),) = kids
    level, least = _PREFIXED[kind]
    return a + (a_level < least) + (kind is Scalar and t.k < 0) + 1, level


def print_term(t: Term) -> str:
    return fold(t, _printed)[0]


def printed_depth(t: Term) -> int:
    """The depth at which parse_term reads print_term(t) back, found
    without printing: past MAX_DEPTH, it refuses the text."""
    return fold(t, _printed_depth)[0]


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


def write_json(t: Term, out: list, pad: str) -> None:
    """Append the JSON text of term_to_json(t) to out, at indentation pad,
    byte for byte as json.dumps(..., sort_keys=True, indent=2) writes it,
    in one top-down walk that builds no dict: each node writes its keys in
    their sorted order.  It recurses once per level, so MAX_DEPTH bounds it
    as it bounds fold, and it writes a shared subterm once per reference,
    as the dict of term_to_json holds it.  Like fold, it stays out of
    __all__, so that a tracer wrapping __all__ does not wrap it per node."""
    inner = pad + "  "
    kind = type(t)
    if kind in _BINARY:
        out.append("{\n" + inner + '"left": ')
        write_json(t.left, out, inner)
        out.append(f',\n{inner}"op": "{_TAGS[kind]}",\n{inner}"right": ')
        write_json(t.right, out, inner)
        out.append("\n" + pad + "}")
    elif kind in _UNARY:
        out.append("{\n" + inner + '"arg": ')
        write_json(t.arg, out, inner)
        k = f',\n{inner}"k": {int.__repr__(t.k)}' if kind is Scalar or kind is Power else ""
        out.append(f'{k},\n{inner}"op": "{_TAGS[kind]}"\n{pad}}}')
    elif kind is Var:
        out.append(f'{{\n{inner}"index": {int.__repr__(t.index)},\n{inner}"kind": '
                   f'{_encode_str(t.kind)},\n{inner}"op": "var"\n{pad}}}')
    elif kind is Zero:
        out.append(f'{{\n{inner}"op": "zero"\n{pad}}}')
    else:
        raise TypeError(f"not a term: {t!r}")
