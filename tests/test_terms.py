import ast
import pathlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from propcalc.errors import CompositionError, GraphError, ParseError
from propcalc.generators import corolla
from propcalc.graphs import (GraphTerm, horizontal_compose, iso_equal, permutation_graph,
                             unit, vertical_compose)
from propcalc.terms import parse


def test_atoms():
    assert iso_equal(parse("id"), unit(1))
    assert parse("eps").biarity == (1, 0)
    assert parse("delta").biarity == (1, 2)
    assert parse("mu(1/2)").biarity == (2, 1)
    assert parse("h(0)").biarity == (1, 1)
    assert iso_equal(parse("swap"), permutation_graph((2, 1)))
    assert iso_equal(parse("sigma[3,1,2]"), permutation_graph((3, 1, 2)))
    assert iso_equal(parse("tau[2,3,1]"), permutation_graph((2, 3, 1)))


def test_whitespace_insignificant():
    assert iso_equal(parse("delta;( eps |id )"), parse("delta ; (eps | id)"))


def test_precedence_horizontal_binds_tighter():
    # a ; b | c parses as a ; (b | c)
    t = parse("delta ; eps | id")
    assert t.biarity == (1, 1)


def test_vertical_is_top_to_bottom():
    t = parse("delta ; (id | delta)")
    assert t.biarity == (1, 3)
    with pytest.raises(CompositionError):
        parse("(id | delta) ; delta")


def test_parameters_parse_as_exact_rationals():
    t = parse("mu(3/7)")
    assert t.vertices[0].params == (Fraction(3, 7),)
    assert parse("mu(1)").vertices[0].params == (Fraction(1),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("mu(1/0)")
    with pytest.raises(ParseError):
        parse("delta ;")
    with pytest.raises(ParseError):
        parse("frob")
    with pytest.raises(ParseError):
        parse("delta delta")
    with pytest.raises(ParseError):
        parse("mu(3/2")


def test_parameter_range_checked():
    from propcalc.errors import GraphError
    with pytest.raises(GraphError):
        parse("mu(3/2)")


def test_nested_parens():
    t = parse("((delta) ; ((mu(1/2))))")
    assert t.biarity == (1, 1)


@pytest.mark.parametrize("text", ["sigma[]", "sigma[,]", "sigma[1,]", "tau[1,,2]",
                                  "sigma[" + "1" * 5000 + "]", "mu(1/" + "3" * 5000 + ")"],
                         ids=["empty", "comma", "trailing-comma", "double-comma",
                              "overlong-entry", "overlong-denominator"])
def test_malformed_numbers_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("(" * 2000 + "id" + ")" * 2000)
    assert parse("(" * 50 + "delta" + ")" * 50).biarity == (1, 2)


# ---------------------------------------------------------------------------
# oracle: the atom-by-atom, left-fold parser that `parse` replaced

_OLD_TOKEN = re.compile(r"\s*(mu|h|id|eps|delta|swap|sigma|tau|\d+|[();|\[\],/])")


def _old_tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _OLD_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _OldParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _old_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        if self.i >= len(self.tokens):
            raise ParseError(f"unexpected end of term {self.text!r}")
        tok, pos = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} at position {pos}, got {tok!r}")
        self.i += 1
        return tok

    def integer(self, what="an integer"):
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected {what}, got {tok!r}")
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"integer of {len(tok)} digits is too long") from None

    def rational(self):
        num = self.integer("a rational")
        if self.peek() == "/":
            self.take("/")
            den = self.integer("a denominator")
            if den == 0:
                raise ParseError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def int_list(self):
        self.take("[")
        items = [self.integer()]
        while self.peek() == ",":
            self.take(",")
            items.append(self.integer())
        self.take("]")
        return items

    def atom(self):
        tok = self.take()
        if tok == "id":
            return unit(1)
        if tok == "eps":
            return corolla("eps")
        if tok == "delta":
            return corolla("delta")
        if tok == "mu":
            self.take("(")
            s = self.rational()
            self.take(")")
            return corolla("mu", (s,))
        if tok == "h":
            self.take("(")
            s = self.rational()
            self.take(")")
            return corolla("phi", (s,))
        if tok == "swap":
            return permutation_graph((2, 1))
        if tok in ("sigma", "tau"):
            return permutation_graph(tuple(self.int_list()))
        if tok == "(":
            t = self.term()
            self.take(")")
            return t
        raise ParseError(f"unexpected token {tok!r}")

    def par(self):
        parts = [self.atom()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else horizontal_compose(parts)

    def term(self):
        t = self.par()
        while self.peek() == ";":
            self.take(";")
            t = vertical_compose(t, self.par())
        return t


def old_parse(text):
    p = _OldParser(text)
    try:
        t = p.term()
    except RecursionError:
        raise ParseError("term nested too deeply") from None
    if p.i != len(p.tokens):
        tok, pos = p.tokens[p.i]
        raise ParseError(f"trailing input {tok!r} at position {pos}")
    return t


def _outcome(parser, text):
    """The parsed term, or the type of the error (and the text of a
    CompositionError, whose wording is kept)."""
    try:
        return parser(text)
    except CompositionError as exc:
        return CompositionError, str(exc)
    except (ParseError, GraphError) as exc:
        return type(exc)


def _assert_same_as_oracle(text):
    new = _outcome(parse, text)
    assert new == _outcome(old_parse, text), text
    return isinstance(new, GraphTerm)


_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _literal_strings():
    """Every string constant in the test files and in verify.py."""
    paths = sorted((_ROOT / "tests").glob("test_*.py")) + [_ROOT / "src/propcalc/verify.py"]
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return sorted(found)


def test_parse_matches_the_oracle_on_every_literal_term():
    texts = _literal_strings()
    texts += [f"{t} ; delta ; (delta | id)" for t in ("mu(1/7)", "mu(1/2)", "mu(5/6)")]
    texts += [f"delta ; {t} ; delta" for t in ("mu(1/7)", "mu(1/2)", "mu(5/6)")]
    parsed = sum(_assert_same_as_oracle(t) for t in texts)
    assert parsed >= 40


def _param(rng):
    q = rng.randint(1, 9)
    return rng.choice(["0", "1", f"{rng.randint(0, q)}/{q}", f"{rng.randint(0, 1)}"])


def _random_layer(rng, width, depth):
    """A random layer on `width` strands: its text and its output count."""
    atoms = []
    out = 0
    while width:
        r = rng.random()
        if depth and r < 0.12:
            k = rng.randint(1, min(width, 3))
            inner, m = _random_term(rng, k, depth - 1)
            atoms.append("(" + inner + ")")
        elif r < 0.3:
            k = rng.randint(1, min(width, 4))
            image = list(range(1, k + 1))
            rng.shuffle(image)
            atoms.append(f"{rng.choice(['sigma', 'tau'])}[{','.join(map(str, image))}]")
            m = k
        elif r < 0.38 and width >= 2:
            atoms.append("swap")
            k = m = 2
        elif r < 0.55:
            atoms.append("id")
            k = m = 1
        elif r < 0.62:
            atoms.append("eps")
            k, m = 1, 0
        elif r < 0.72 and out < 6:
            atoms.append("delta")
            k, m = 1, 2
        elif r < 0.86 and width >= 2:
            atoms.append(f"mu({_param(rng)})")
            k, m = 2, 1
        else:
            atoms.append(f"h({_param(rng)})")
            k = m = 1
        width -= k
        out += m
    return rng.choice([" | ", "|", "  |\n"]).join(atoms), out


def _random_term(rng, width, depth):
    """A random well-typed term on `width` inputs: its text and its output count."""
    layers = []
    for _ in range(rng.randint(1, 6)):
        text, width = _random_layer(rng, width, depth)
        layers.append(text)
        if width == 0:
            break
    text = rng.choice([" ; ", ";", "\n; "]).join(layers)
    for _ in range(rng.choice([0, 0, 1, 2])):
        text = "(" + text + ")"
    return text, width


def test_parse_matches_the_oracle_on_random_terms():
    rng = random.Random(41)
    for _ in range(400):
        text, _ = _random_term(rng, rng.randint(1, 4), depth=2)
        assert _assert_same_as_oracle(text), text


def test_parse_matches_the_oracle_on_mutated_terms():
    """Swapping an atom for one of another arity, or deleting or duplicating
    a token, makes arity mismatches (nested ones too), parse errors and
    errors that come after a mismatch; each must come out the same way."""
    rng = random.Random(42)
    simple = ["id", "eps", "delta", "swap"]
    for _ in range(600):
        text, _ = _random_term(rng, rng.randint(1, 3), depth=2)
        tokens = _OLD_TOKEN.findall(text)
        atoms = [k for k, tok in enumerate(tokens) if tok in simple]
        r = rng.random()
        if r < 0.5 and atoms:
            tokens[rng.choice(atoms)] = rng.choice(simple)
        elif r < 0.75:
            del tokens[rng.randrange(len(tokens))]
        else:
            tokens.insert(rng.randrange(len(tokens)),
                          rng.choice(tokens + [";", "|", "(", ")", "delta"]))
        _assert_same_as_oracle(" ".join(tokens))


@pytest.mark.parametrize("text, error", [
    ("delta ; delta", CompositionError),
    ("id | (delta ; delta) ; mu(1/2)", CompositionError),
    ("(delta ; (id | delta) ; mu(1/3)) ; id", CompositionError),
    ("delta ; delta ; mu(3/2)", CompositionError),
    ("delta ; delta ; (id", CompositionError),
    ("delta ; delta ;", CompositionError),
    ("delta ; mu(1/2) ; sigma[1,1]", GraphError),
    ("mu(3/2) ; delta ; delta", GraphError),
    ("delta ; (id | delta) ; (mu(1/3) | id", ParseError),
    ("delta ; (id | delta) frob", ParseError),
], ids=["mismatch", "nested-mismatch", "mismatch-below-nested",
        "range-error-after-mismatch", "paren-after-mismatch", "end-after-mismatch",
        "permutation-error", "range-error-before-mismatch", "unclosed", "bad-character"])
def test_errors_match_the_oracle(text, error):
    with pytest.raises(error):
        parse(text)
    assert _outcome(parse, text) == _outcome(old_parse, text)


def test_mismatch_message_names_the_term_above():
    with pytest.raises(CompositionError,
                       match=re.escape("cannot compose (1,3) above (2,1)")):
        parse("delta ; (id | delta) ; mu(1/2)")


def _top_level_layers(text):
    depth = 0
    layers = 1
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        layers += ch == ";" and depth == 0
    return layers


def _long_term(rng, layers):
    """`_random_term` pieces chained on matching widths until the text has at
    least `layers` top-level layers; a piece that would end on no strands
    or on more than eight is drawn again."""
    width = rng.randint(1, 4)
    pieces = []
    count = 0
    while count < layers:
        piece, out = _random_term(rng, width, depth=1)
        if not 1 <= out <= 8:
            continue
        pieces.append(piece)
        count += _top_level_layers(piece)
        width = out
    return rng.choice([" ; ", ";", "\n; "]).join(pieces)


def test_parse_matches_the_oracle_on_long_terms():
    """Terms of 100-300 layers, so the pairwise joins go several levels deep;
    one in four is also mutated to fail somewhere along the way."""
    rng = random.Random(43)
    parsed = nested = 0
    layer_counts = []
    for k in range(80):
        text = _long_term(rng, rng.randint(100, 294))
        layer_counts.append(_top_level_layers(text))
        nested += text.count("(") >= 20
        if k % 4 == 3:
            tokens = _OLD_TOKEN.findall(text)
            tokens[rng.randrange(len(tokens))] = rng.choice(["id", "eps", "delta", ";", ")"])
            text = " ".join(tokens)
        parsed += _assert_same_as_oracle(text)
    assert parsed >= 60 and nested >= 60
    assert min(layer_counts) >= 100 and max(layer_counts) <= 300
    assert max(layer_counts) >= 250


def _assert_same_message_as_oracle(text):
    """`_assert_same_as_oracle`, with every error's message compared too;
    returns the parsed term or the error's type and message."""
    outcomes = []
    for parser in (parse, old_parse):
        try:
            outcomes.append(parser(text))
        except (ParseError, GraphError, CompositionError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], text
    return outcomes[0]


@pytest.mark.parametrize("text", [
    "mu(007/016)", "h(007/016)", "mu(10/16) ; h(0003/00004)", "delta ; (mu(015/0100) | h(1))",
    "mu( 3 / 16 )", "h (\n1 /2 )", "delta ; mu ( 0 )", "mu(1/0)", "h(5/3)", "mu(1/ 0) ; h(1)",
    "mu(" + "1" * 5000 + "/2)", "h(1/" + "7" * 5000 + ")", "mu(3/4", "mu 3/4)", "h(/2)",
    "h(1/2/3)", "swap | sigma[2,1]", "sigma[3,1,2] | swap ; swap | tau[1,3,2]",
    "swap|sigma[1]", "(swap | sigma[2,1]) ; sigma[4,3,2,1]", "swap | sigma[2,2]",
], ids=["mu-leading-zeros", "h-leading-zeros", "multi-digit", "nested-leading-zeros",
        "spaced", "spaced-newline", "spaced-integer", "zero-denominator", "h-above-one",
        "spaced-zero-denominator", "long-numerator", "long-denominator", "unclosed-rational",
        "no-paren", "no-numerator", "two-slashes", "swap-sigma", "sigma-swap-tau",
        "swap-sigma-1", "nested-swap-sigma", "swap-bad-sigma"])
def test_parse_matches_the_oracle_at_each_atom(text):
    _assert_same_message_as_oracle(text)


def _rational(rng):
    """A parameter as the compose inputs spell it, sometimes padded with
    zeros or spaced out."""
    q = rng.choice([2, 3, 16, 48, 256, 4096])
    text = rng.choice(["0", "1", f"{rng.randint(0, q)}/{q}", f"{rng.randint(1, q - 1)}/{q}"])
    if rng.random() < 0.1:
        text = "/".join("0" * rng.randint(1, 3) + part for part in text.split("/"))
    if rng.random() < 0.1:
        text = " " + text.replace("/", " / ") + " "
    return text


def _pool_shaped_term(rng, layers):
    """Layers like a rendered compose input: one vertex per layer among
    "id" strands, mostly `mu`/`h`, some after a `sigma` layer."""
    width = rng.randint(2, 6)
    texts = []
    while len(texts) < layers:
        if width > 1 and rng.random() < 0.3:
            image = list(range(1, width + 1))
            rng.shuffle(image)
            texts.append("sigma[" + ",".join(map(str, image)) + "]")
        r = rng.random()
        if r < 0.45 and width >= 2:
            atom, k, m = f"mu({_rational(rng)})", 2, 1
        elif r < 0.8:
            atom, k, m = f"h({_rational(rng)})", 1, 1
        elif r < 0.92 and width < 12:
            atom, k, m = "delta", 1, 2
        elif width >= 2:
            atom, k, m = "eps", 1, 0
        else:
            atom, k, m = "id", 1, 1
        cut = rng.randint(0, width - k)
        texts.append(" | ".join(["id"] * cut + [atom] + ["id"] * (width - k - cut)))
        width += m - k
    return " ; ".join(texts)


def test_parse_matches_the_oracle_on_pool_shaped_terms():
    """100-130 layers with a `mu` or `h` parameter on most of them, each
    term also once with one token swapped, deleted or duplicated."""
    rng = random.Random(44)
    mutated = Counter()
    for _ in range(100):
        text = _pool_shaped_term(rng, rng.randint(100, 130))
        assert isinstance(_assert_same_message_as_oracle(text), GraphTerm), text
        tokens = _OLD_TOKEN.findall(text)
        k = rng.randrange(len(tokens))
        r = rng.random()
        if r < 0.3:
            k = rng.choice([j for j, tok in enumerate(tokens) if tok == "id"])
            tokens[k] = rng.choice(["eps", "delta", "swap"])
        elif r < 0.45:
            k = rng.choice([j for j, tok in enumerate(tokens) if tokens[j - 1] == "("])
            tokens[k] = rng.choice(["99999", "9" * 5000])
        elif r < 0.7:
            del tokens[k]
        else:
            tokens.insert(k, tokens[k])
        outcome = _assert_same_message_as_oracle(" ".join(tokens))
        mutated[outcome[0].__name__ if isinstance(outcome, tuple) else "parsed"] += 1
    assert min(mutated[k] for k in ("ParseError", "CompositionError", "GraphError")) >= 5, mutated
