import numpy as np
import pytest

from hyperforge import AlgebraElement, parse_element
from hyperforge.errors import ElementError, ParseError, SemanticError


def coeffs(text, gens=None):
    return parse_element(text, num_generators=gens).element().coeffs


class TestGrammar:
    def test_powers_and_coefficients(self):
        assert coeffs("x1^2 + 0.3*x1^3") == {(2,): 1 + 0j, (3,): 0.3 + 0j}

    def test_products(self):
        assert coeffs("x1*x2") == {(1, 1): 1 + 0j}
        assert coeffs("x1 x2") == {(1, 1): 1 + 0j}
        assert coeffs("x1*x1") == {(2,): 1 + 0j}
        assert coeffs("2*x1*x2^3") == {(1, 3): 2 + 0j}

    def test_subtraction_negates(self):
        assert coeffs("x1 - x2", gens=2) == {(1, 0): 1 + 0j, (0, 1): -1 + 0j}
        assert coeffs("x1 - 2*x1") == {(1,): -1 + 0j}

    def test_complex_literals(self):
        assert coeffs("2i*x1") == {(1,): 2j}
        assert coeffs("i*x1") == {(1,): 1j}
        assert coeffs("1+2i*x1") == {(1,): 1 + 2j}
        assert coeffs("0.5*x1 + 0.25i*x1") == {(1,): 0.5 + 0.25j}

    def test_greedy_literal_after_exponent(self):
        assert coeffs("x1^2+3i*x2") == {(2, 0): 1 + 0j, (0, 1): 3j}
        assert coeffs("x1^2+0.3*x1^3") == {(2,): 1 + 0j, (3,): 0.3 + 0j}

    def test_like_terms_merge(self):
        assert coeffs("x1 + x1 + x1^2") == {(1,): 2 + 0j, (2,): 1 + 0j}

    def test_cancellation_to_zero_is_rejected(self):
        with pytest.raises(Exception):
            coeffs("x1 - x1")


class TestErrors:
    def test_constant_terms_are_semantic_errors(self):
        with pytest.raises(SemanticError):
            parse_element("1 + x1")
        with pytest.raises(SemanticError):
            parse_element("x1 + 2")
        with pytest.raises(SemanticError):
            parse_element("x1^0")

    @pytest.mark.parametrize("text", ["1e400*x1", "1e400i*x1 + x1^2", "x1 - 2e308*x2"])
    def test_non_finite_literals_are_semantic_errors(self, text):
        with pytest.raises(SemanticError, match="not finite"):
            parse_element(text)

    def test_like_terms_summing_past_the_double_range_are_rejected(self):
        expr = parse_element("1.7e308*x1 + 1.7e308*x1")
        with pytest.raises(ElementError, match="finite"):
            expr.element()

    @pytest.mark.parametrize(
        "beta", [(1.5,), (True, 0), (2.0,), (np.float64(2.0),), (np.True_,), ("2",)],
        ids=["fraction", "bool", "integral-float", "numpy-float", "numpy-bool", "string"],
    )
    def test_non_integer_exponents_are_element_errors(self, beta):
        # int() would truncate 1.5 to 1 and read True as 1
        with pytest.raises(ElementError, match="not an integer"):
            AlgebraElement({beta: 2.0}, len(beta))

    def test_numpy_integer_exponents_are_ints(self):
        z = AlgebraElement({(np.int64(2), np.int32(1)): 1.0}, 2)
        assert z.coeffs == {(2, 1): 1 + 0j}
        assert all(type(e) is int for e in next(iter(z.coeffs)))

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_element("x1 + ")
        assert exc.value.pos == 5
        with pytest.raises(ParseError):
            parse_element("x1 * * x2")
        with pytest.raises(ParseError):
            parse_element("q1")
        with pytest.raises(ParseError):
            parse_element("x1 ^ x2")

    def test_generator_width(self):
        expr = parse_element("x1 + x3")
        assert expr.num_generators == 3
        with pytest.raises(SemanticError):
            parse_element("x3", num_generators=2)
        widened = parse_element("x1", num_generators=4)
        assert widened.element().coeffs == {(1, 0, 0, 0): 1 + 0j}
