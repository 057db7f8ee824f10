import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from efdkit import terms
from efdkit.gen import random_term
from efdkit.models import TwoMV, eval_term
from efdkit.terms import (
    MAX_DEPTH,
    MAX_INDEX,
    Diff,
    EFDSentence,
    Identity,
    Join,
    Meet,
    MVNeg,
    Neg,
    ParseError,
    Plus,
    Power,
    Scalar,
    Signature,
    SignatureError,
    Var,
    ZERO,
    boolean_marker,
    build_delta_k,
    build_epsilon_k,
    build_t_k,
    fold,
    is_boolean_marker,
    max_index,
    parse_sentence,
    parse_term,
    print_sentence,
    print_term,
    printed_depth,
    xvar,
    zvar,
)


class TestParsing:
    def test_precedence_join_lowest(self):
        t = parse_term(r"x1 + x2 \/ x3", Signature.GROUP)
        assert t == Join(Plus(xvar(1), xvar(2)), xvar(3))

    def test_meet_binds_tighter_than_join(self):
        t = parse_term(r"x1 \/ x2 /\ x3", Signature.GROUP)
        assert t == Join(xvar(1), Meet(xvar(2), xvar(3)))

    def test_scalar_and_negation(self):
        t = parse_term("3 x1 + -x2", Signature.GROUP)
        assert t == Plus(Scalar(3, xvar(1)), Neg(xvar(2)))

    def test_mv_operations(self):
        t = parse_term("~2 z1^2", Signature.MV)
        assert t == MVNeg(Scalar(2, Power(2, zvar(1))))

    def test_monus(self):
        t = parse_term("x1 -. x2 -. x3", Signature.HOOP)
        assert t == Diff(Diff(xvar(1), xvar(2)), xvar(3))

    def test_parentheses(self):
        t = parse_term(r"2 (x1 \/ x2)", Signature.GROUP)
        assert t == Scalar(2, Join(xvar(1), xvar(2)))

    @pytest.mark.parametrize(
        "text,sig",
        [
            ("x1 +", Signature.GROUP),
            ("", Signature.GROUP),
            ("x1 ~ x2", Signature.MV),
            ("x0", Signature.GROUP),
            ("y1", Signature.GROUP),
        ],
    )
    def test_rejects_malformed(self, text, sig):
        with pytest.raises((ParseError, SignatureError)):
            parse_term(text, sig)

    @pytest.mark.parametrize(
        "text,sig",
        [
            ("-x1", Signature.MV),
            ("~x1", Signature.GROUP),
            ("x1 -. x2", Signature.GROUP),
            (r"x1 \/ x2", Signature.HOOP),
            ("x1^2", Signature.GROUP),
        ],
    )
    def test_rejects_foreign_symbols(self, text, sig):
        with pytest.raises((ParseError, SignatureError)):
            parse_term(text, sig)

    def test_sentence_roundtrip(self):
        phi = parse_sentence(
            "forall x1 x2 exists! z1 : 2 z1 = x1 /\\ x2", Signature.GROUP
        )
        assert isinstance(phi, EFDSentence)
        assert (phi.n, phi.m) == (2, 1)
        assert parse_sentence(print_sentence(phi), Signature.GROUP) == phi

    @pytest.mark.parametrize("text", [
        "forall x1 : 2 x1 = x1", "forall x1 : x1 = 2 x1",
        "forall x1 : x1 + x1 = x1", "forall x1 : x1 = x1 + x1",
    ], ids=["scalar-left", "scalar-right", "sum-left", "sum-right"])
    def test_identity_sentence(self, text):
        ident = parse_sentence(text, Signature.MV)
        assert isinstance(ident, Identity)
        assert is_boolean_marker(ident)


@st.composite
def terms_of(draw, sig):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    n = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 5))
    return random_term(rng, sig, n, depth, kinds=("x", "z"), m=2)


def _read_back(t, sig):
    """The term and the depth at which the parser reads print_term(t), a
    depth no larger than the text is long (cli._readable reads no term
    whose text is at most MAX_DEPTH long)."""
    text = print_term(t)
    p = terms._Parser(text, sig)
    u, depth = p.term()
    assert p.at_end() and depth <= len(text)
    return u, depth


class TestPrintParseRoundtrip:
    """The printer writes each binary operator from the parser's table
    (terms._INFIX from terms._BINARY_OPS), and printed_depth counts the
    depth at which the parser reads the text back."""

    @settings(max_examples=1000, deadline=None)
    @given(terms_of(Signature.GROUP))
    def test_group(self, t):
        assert _read_back(t, Signature.GROUP) == (t, printed_depth(t))

    @settings(max_examples=1000, deadline=None)
    @given(terms_of(Signature.HOOP))
    def test_hoop(self, t):
        assert _read_back(t, Signature.HOOP) == (t, printed_depth(t))

    @settings(max_examples=1000, deadline=None)
    @given(terms_of(Signature.MV))
    def test_mv(self, t):
        assert _read_back(t, Signature.MV) == (t, printed_depth(t))

    def test_a_negative_scalar_reads_back_as_a_negation(self):
        t = Scalar(-3, Join(xvar(1), xvar(2)))
        assert print_term(t) == r"-3 (x1 \/ x2)"
        assert _read_back(t, Signature.GROUP) == (Neg(Scalar(3, t.arg)), printed_depth(t))
        assert printed_depth(t) == 5

    def test_nested_operators_bracket_as_they_associate(self):
        x1, x2, x3 = xvar(1), xvar(2), xvar(3)
        cases = [
            (Plus(Plus(x1, x2), x3), "x1 + x2 + x3", 3),
            (Plus(x1, Plus(x2, x3)), "x1 + (x2 + x3)", 4),
            (Diff(x1, Plus(x2, x3)), "x1 -. (x2 + x3)", 4),
            (Meet(Join(x1, x2), x3), r"(x1 \/ x2) /\ x3", 4),
            (Power(3, Power(2, x1)), "(x1^2)^3", 4),
        ]
        for t, text, depth in cases:
            assert (print_term(t), printed_depth(t)) == (text, depth)
            sig = Signature.HOOP if type(t) is Plus or type(t) is Diff else Signature.MV
            assert _read_back(t, sig) == (t, depth)

    def test_the_parser_refuses_what_prints_past_the_bound(self):
        t = xvar(1)
        for _ in range(MAX_DEPTH - 1):
            t = Plus(t, xvar(1))
        assert printed_depth(t) == MAX_DEPTH
        assert parse_term(print_term(t), Signature.HOOP) == t
        t = Plus(xvar(1), t)
        assert printed_depth(t) == MAX_DEPTH + 2
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
            parse_term(print_term(t), Signature.HOOP)


def _mv_primitive(t):
    """t over the MV primitives +, ~ and 0, through the definitions of the
    derived operations: the reference the evaluator's Join, Meet, Diff,
    Scalar and Power are checked against."""

    def join(a, b):  # x \/ y := ~(~x + y) + y
        return Plus(MVNeg(Plus(MVNeg(a), b)), b)

    def expand(node, *kids):
        kind = type(node)
        if kind is Join:
            return join(*kids)
        if kind is Meet:  # x /\ y := ~(~x \/ ~y)
            a, b = kids
            return MVNeg(join(MVNeg(a), MVNeg(b)))
        if kind is Diff:  # x -. y := ~(~x + y)
            a, b = kids
            return MVNeg(Plus(MVNeg(a), b))
        if kind is Scalar:  # k x := x + ... + x
            return functools.reduce(Plus, kids * node.k) if node.k else ZERO
        if kind is Power:  # x^k := x * ... * x with x * y := ~(~x + ~y)
            return functools.reduce(lambda a, b: MVNeg(Plus(MVNeg(a), MVNeg(b))), kids * node.k)
        return kind(*kids) if kids else node

    return fold(t, expand)


class TestMacros:
    @settings(max_examples=300, deadline=None)
    @given(terms_of(Signature.MV), st.integers(0, 2**16))
    def test_expansion_is_primitive_and_value_preserving(self, t, bits):
        expanded = _mv_primitive(t)
        for node_type in (Join, Meet, Diff, Scalar, Power):
            assert _count(expanded, node_type) == 0
        two = TwoMV()
        variables = [Var(kind, i) for kind in "xz" for i in range(1, max_index(t, kind) + 1)]
        env = {v: (bits >> i) & 1 for i, v in enumerate(variables)}
        assert eval_term(two, t, env) == eval_term(two, expanded, env)

    @settings(max_examples=200, deadline=None)
    @given(terms_of(Signature.MV))
    def test_expansion_idempotent(self, t):
        once = _mv_primitive(t)
        assert _mv_primitive(once) == once


def _count(t, node_type):
    total = 1 if isinstance(t, node_type) else 0
    for attr in ("left", "right", "arg"):
        child = getattr(t, attr, None)
        if child is not None:
            total += _count(child, node_type)
    return total


class TestBuilders:
    def test_t_k_shape(self):
        assert build_t_k(3) == parse_term(
            r"(3 z1 /\ ~2 z1^2) \/ z1^3", Signature.MV
        )

    def test_delta_k(self):
        phi = build_delta_k(4)
        assert print_sentence(phi) == "forall x1 exists! z1 : 4 z1 = x1"

    def test_epsilon_k(self):
        phi = build_epsilon_k(2)
        assert phi.signature is Signature.MV
        assert phi.equations[0][1] == xvar(1)

    def test_boolean_marker_roundtrip(self):
        m = boolean_marker()
        assert is_boolean_marker(m)

    def test_scalar_one_collapses(self):
        assert build_t_k(1) == parse_term(r"(z1 /\ ~2 z1^2) \/ z1", Signature.MV)


class TestValidation:
    def test_sentence_requires_existential_block(self):
        with pytest.raises(ValueError):
            EFDSentence(Signature.GROUP, 1, 0, ((xvar(1), ZERO),))

    def test_variable_indices_bounded(self):
        with pytest.raises((ValueError, SignatureError)):
            EFDSentence(Signature.GROUP, 1, 1, ((xvar(5), zvar(1)),))

    def test_validate_term_signature(self):
        with pytest.raises(SignatureError, match="Diff not admitted in group terms"):
            EFDSentence(Signature.GROUP, 2, 1, ((zvar(1), Diff(xvar(1), xvar(2))),))

    def test_one_fold_per_side_and_none_in_the_parser(self, monkeypatch):
        folded = []

        def counted(t, f, fold=fold):
            folded.append(t)
            return fold(t, f)

        monkeypatch.setattr(terms, "fold", counted)
        lhs = parse_term(r"2 z1 \/ ~z1", Signature.MV)
        rhs = parse_term("x1 -. x2", Signature.MV)
        assert folded == []
        EFDSentence(Signature.MV, 2, 1, ((lhs, rhs), (rhs, lhs)))
        assert folded == [lhs, rhs, rhs, lhs]
        folded.clear()
        ident = boolean_marker()
        assert folded == list(ident.equation)

    def test_leftmost_fault_is_named(self):
        with pytest.raises(SignatureError, match="^variable x5 out of range$"):
            EFDSentence(Signature.GROUP, 1, 1, ((zvar(1), parse_term("x5 + x7 + x9 + x3", Signature.GROUP)),))
        with pytest.raises(SignatureError, match="^Diff not admitted in group terms$"):
            parse_term("x1 -. x2 +", Signature.GROUP)
        with pytest.raises(SignatureError, match="^bad variable x0$"):
            parse_term(r"x0 \/ x1", Signature.GROUP)
        with pytest.raises(SignatureError, match="^Join not admitted in hoop terms$"):
            parse_term(r"x1 \/ x2", Signature.HOOP)
        with pytest.raises(SignatureError, match="^variable z3 out of range$"):
            parse_sentence("forall x1 exists! z1 : z3 = x1 & z1 = x1 -. x1", Signature.GROUP)

    def test_max_index(self):
        t = parse_term(r"x1 + 2 x3 \/ z1", Signature.GROUP)
        assert max_index(t, "x") == 3
        assert max_index(t, "z") == 1


def _depth(t):
    return fold(t, lambda node, *kids: 1 + max(kids, default=0))


class TestDepthBound:
    """MAX_DEPTH bounds the nesting the parser accepts: each node and each
    pair of parentheses is a level, and a sentence holds at most MAX_DEPTH
    equations.  Tested at the bound and one past it."""

    @pytest.mark.parametrize(
        "make,sig",
        [
            (lambda d: "(" * (d - 1) + "x1" + ")" * (d - 1), Signature.GROUP),
            (lambda d: " + ".join(["x1"] * d), Signature.HOOP),
            (lambda d: "-" * (d - 1) + "x1", Signature.GROUP),
            (lambda d: "~" * (d - 1) + "x1", Signature.MV),
            (lambda d: r"x1 /\ x2" + r" \/ x1" * (d - 2), Signature.GROUP),
            (lambda d: "(x1 + " * ((d - 1) // 2) + "x1" + ")" * ((d - 1) // 2), Signature.MV),
        ],
    )
    def test_term_depth(self, make, sig):
        t = parse_term(make(MAX_DEPTH), sig)
        assert _depth(t) <= MAX_DEPTH
        assert parse_term(print_term(t), sig) == t
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_term(make(MAX_DEPTH + 1), sig)

    def test_equation_count(self):
        def text(count):
            return "forall x1 exists! z1 : " + " & ".join(["z1 = x1"] * count)

        phi = parse_sentence(text(MAX_DEPTH), Signature.MV)
        assert len(phi.equations) == MAX_DEPTH
        with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} equations"):
            parse_sentence(text(MAX_DEPTH + 1), Signature.MV)


class TestIndexBound:
    """MAX_INDEX bounds the variable indices the parser accepts, in terms
    and in the forall and exists! blocks of a sentence."""

    def test_term_variables(self):
        for kind in "xz":
            assert parse_term(f"{kind}{MAX_INDEX}", Signature.GROUP) == Var(kind, MAX_INDEX)
            with pytest.raises(ParseError, match=f"variable index above {MAX_INDEX}"):
                parse_term(f"x1 + {kind}{MAX_INDEX + 1}", Signature.GROUP)
        with pytest.raises(ParseError, match=f"variable index above {MAX_INDEX}"):
            parse_term("x" + "9" * 5000, Signature.GROUP)
        assert parse_term("x0007", Signature.GROUP) == Var("x", 7)

    def test_sentence_blocks(self):
        def block(kind, count):
            return " ".join(f"{kind}{i}" for i in range(1, count + 1))

        phi = parse_sentence(
            f"forall {block('x', MAX_INDEX)} exists! {block('z', MAX_INDEX)} : z1 = x1",
            Signature.MV,
        )
        assert (phi.n, phi.m) == (MAX_INDEX, MAX_INDEX)
        for text in (
            f"forall {block('x', MAX_INDEX + 1)} exists! z1 : z1 = x1",
            f"forall x1 exists! {block('z', MAX_INDEX + 1)} : z1 = x1",
        ):
            with pytest.raises(ParseError, match=f"variable index above {MAX_INDEX}"):
                parse_sentence(text, Signature.MV)


class TestFold:
    def test_children_left_first(self):
        t = parse_term(r"x1 -. 2 x2 + x3", Signature.HOOP)
        seen = []
        fold(t, lambda node, *kids: seen.append(type(node).__name__))
        assert seen == ["Var", "Var", "Scalar", "Diff", "Var", "Plus"]

    def test_rejects_a_non_term(self):
        with pytest.raises(TypeError):
            fold(3, lambda node, *kids: node)

    def test_shared_binary_nodes_are_folded_once(self):
        """p = p + p, 60 times over, is a tree of 2^61 - 1 nodes and 61 node
        objects.  Each Plus is folded once, and the leaf x1 once per
        reference: twice."""
        p = xvar(1)
        for _ in range(60):
            p = Plus(p, p)
        calls = []

        def size(node, *kids):
            calls.append(node)
            if len(calls) > 1000:  # a tree walk would take 2^61 - 1 calls
                raise AssertionError("a shared node was folded again")
            return 1 + sum(kids)

        assert fold(p, size) == 2**61 - 1
        assert len(calls) == 62


class TestRandomTerm:
    # printed before random_term drew from terms._NODES, so the draw order
    # of each signature's nodes cannot drift: every suite and test that
    # draws terms keeps drawing the same ones
    @pytest.mark.parametrize(
        "sig,seed,printed",
        [
            (Signature.GROUP, 2, r"x2 + -3 (z1 /\ x2)"),
            (Signature.GROUP, 3, r"3 (-5 ((x1 /\ 0) + 5 0))"),
            (Signature.GROUP, 4, r"(x2 /\ (z1 + x2 \/ z1 + z1)) + (z1 \/ 0)"),
            (Signature.GROUP, 5, r"2 (--z1) \/ (x2 /\ x1) + (x1 /\ x1) + -(x1 \/ x2)"),
            (Signature.HOOP, 2, "x2 + (3 (5 z1) + (0 -. 0 + 3 x1))"),
            (Signature.HOOP, 4, "x2 -. (z1 + x2 -. (z1 + z1)) + 4 z1"),
            (Signature.MV, 3, "0 -. ((~z1)^3 + (~0)^2)"),
            (Signature.MV, 4, r"(x2 /\ (z1^2 \/ x1^2)) + (~z1)^3"),
            (Signature.MV, 5, "4 ((~z1)^2)^2"),
        ],
    )
    def test_fixed_seeds_draw_fixed_terms(self, sig, seed, printed):
        assert print_term(random_term(random.Random(seed), sig, 2, 4, 6, ("x", "z"), 1)) == printed

    def test_every_node_is_admitted_and_parsed_where_admitted(self):
        """_ALLOWED is _NODES with the leaves; the parser rejects unary -,
        ~ and ^ outside the signatures that have Neg, MVNeg and Power."""
        for sig, nodes in terms._NODES.items():
            assert terms._ALLOWED[sig] == {Var, type(ZERO), *nodes}
        for text, node, message in [("-x1", Neg, "unary -"), ("~x1", MVNeg, "~"), ("x1^2", Power, r"\^")]:
            for sig in Signature:
                if node in terms._NODES[sig]:
                    assert type(parse_term(text, sig)) is node
                else:
                    with pytest.raises(ParseError, match=f"^{message} only admitted in"):
                        parse_term(text, sig)
