import pytest
from fractions import Fraction

from propcalc.errors import CompositionError, ParseError
from propcalc.graphs import iso_equal, permutation_graph, unit
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
