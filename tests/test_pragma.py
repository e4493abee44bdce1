"""Tests for the ``#pragma css task`` clause parser (sections II, V.A)."""

import pytest
from hypothesis import given, strategies as st

from repro.check.intervals import TOP, Interval
from repro.core.pragma import (
    PragmaError,
    parse_expression,
    parse_pragma,
)
from repro.core.task import Direction


class TestDirectionalityClauses:
    def test_single_input(self):
        p = parse_pragma("input(a)")
        assert len(p.params) == 1
        assert p.params[0].name == "a"
        assert p.params[0].direction is Direction.INPUT

    def test_figure2_sgemm(self):
        p = parse_pragma("input(a, b) inout(c)")
        assert [s.name for s in p.params] == ["a", "b", "c"]
        assert [s.direction for s in p.params] == [
            Direction.INPUT, Direction.INPUT, Direction.INOUT,
        ]

    def test_output_clause(self):
        p = parse_pragma("output(dest)")
        assert p.params[0].direction is Direction.OUTPUT

    def test_opaque_clause(self):
        p = parse_pragma("opaque(A) input(i, j) output(a)")
        assert p.params[0].direction is Direction.OPAQUE

    def test_multiple_clauses_same_direction(self):
        p = parse_pragma("input(a) input(b)")
        assert len(p.params) == 2

    def test_empty_pragma(self):
        p = parse_pragma("")
        assert p.params == []
        assert not p.high_priority

    def test_full_pragma_line_tolerated(self):
        # The whole construct tail may be passed verbatim.
        p = parse_pragma("css task input(a) inout(b)")
        assert [s.name for s in p.params] == ["a", "b"]


class TestHighPriority:
    def test_highpriority_flag(self):
        assert parse_pragma("highpriority").high_priority
        assert parse_pragma("input(a) highpriority").high_priority
        assert not parse_pragma("input(a)").high_priority


class TestDimensionSpecifiers:
    def test_single_dimension(self):
        p = parse_pragma("input(data[N])")
        spec = p.params[0]
        assert len(spec.dims) == 1
        assert spec.dims[0].evaluate({"N": 10}) == 10

    def test_figure2_matrix_dims(self):
        p = parse_pragma("input(a[M][M], b[M][M]) inout(c[M][M])")
        for spec in p.params:
            assert len(spec.dims) == 2

    def test_dimension_expression(self):
        p = parse_pragma("input(a[N*M+1])")
        assert p.params[0].dims[0].evaluate({"N": 3, "M": 4}) == 13


class TestRegionSpecifiers:
    def test_bounds_form(self):
        p = parse_pragma("inout(data{i..j})")
        region = p.params[0].regions[0]
        assert region.bounds({"i": 2, "j": 7}) == (2, 7)

    def test_length_form(self):
        p = parse_pragma("input(data{l:L})")
        region = p.params[0].regions[0]
        assert region.bounds({"l": 4, "L": 3}) == (4, 6)

    def test_empty_form_with_extent(self):
        p = parse_pragma("input(data{})")
        region = p.params[0].regions[0]
        assert region.full
        assert region.bounds({}, extent=10) == (0, 9)

    def test_empty_form_unknown_extent(self):
        p = parse_pragma("input(data{})")
        assert p.params[0].regions[0].bounds({}, extent=None) == (0, -1)

    def test_figure7_seqmerge(self):
        p = parse_pragma(
            "input(data{i1..j1}, data{i2..j2}, i1, j1, i2, j2) "
            "output(dest{i1..j2})"
        )
        data_specs = p.specs_for("data")
        assert len(data_specs) == 2
        assert all(s.has_region for s in data_specs)
        dest = p.specs_for("dest")[0]
        assert dest.direction is Direction.OUTPUT

    def test_multidimensional_regions(self):
        p = parse_pragma("inout(A{r0..r1}{c0..c1})")
        spec = p.params[0]
        assert len(spec.regions) == 2

    def test_region_after_dims(self):
        p = parse_pragma("input(data[N]{i..j})")
        spec = p.params[0]
        assert len(spec.dims) == 1 and len(spec.regions) == 1

    def test_region_with_expressions(self):
        p = parse_pragma("input(data{i+1..2*j-1})")
        assert p.params[0].regions[0].bounds({"i": 0, "j": 3}) == (1, 5)

    def test_line_continuations(self):
        p = parse_pragma("input(a) \\\n inout(b)")
        assert [s.name for s in p.params] == ["a", "b"]


class TestValidation:
    def test_unknown_clause(self):
        with pytest.raises(PragmaError, match="unknown clause"):
            parse_pragma("banana(a)")

    def test_missing_paren(self):
        with pytest.raises(PragmaError):
            parse_pragma("input(a")

    def test_duplicate_without_regions(self):
        # The error must name the parameter and both clauses.
        with pytest.raises(
            PragmaError, match=r"'a' is listed in both the 'input' and 'output'"
        ):
            parse_pragma("input(a) output(a)")

    def test_duplicate_same_clause(self):
        with pytest.raises(
            PragmaError, match=r"'x' is listed twice in the 'input' clause"
        ):
            parse_pragma("input(x, y, x)")

    def test_duplicate_same_clause_repeated(self):
        with pytest.raises(
            PragmaError, match=r"'x' is listed 3 times in the 'inout' clause"
        ):
            parse_pragma("inout(x, x, x)")

    def test_duplicate_mixed_regions_still_rejected(self):
        # One appearance carrying a region does not legitimise the other.
        with pytest.raises(PragmaError, match=r"'a' is listed"):
            parse_pragma("input(a{0..1}) output(a)")

    def test_duplicate_with_regions_ok(self):
        p = parse_pragma("input(a{0..1}) output(a{2..3})")
        assert len(p.specs_for("a")) == 2

    def test_duplicate_same_clause_with_regions_ok(self):
        # Section V.A: several appearances are fine when each has a region.
        p = parse_pragma("input(a{0..1}) input(a{4..5})")
        assert len(p.specs_for("a")) == 2

    def test_opaque_conflicts_with_direction(self):
        with pytest.raises(PragmaError, match="opaque"):
            parse_pragma("opaque(p) input(p{0..1})")

    def test_region_dim_count_mismatch(self):
        with pytest.raises(PragmaError, match="one region per dimension"):
            parse_pragma("input(a[N][N]{0..1})")

    def test_bad_region_separator(self):
        with pytest.raises(PragmaError):
            parse_pragma("input(a{1;2})")

    def test_garbage_characters(self):
        with pytest.raises(PragmaError, match="unexpected character"):
            parse_pragma("input(a) @")


class TestExpressions:
    def test_integer(self):
        assert parse_expression("42").evaluate({}) == 42

    def test_precedence(self):
        assert parse_expression("2+3*4").evaluate({}) == 14
        assert parse_expression("(2+3)*4").evaluate({}) == 20

    def test_unary_minus(self):
        assert parse_expression("-3+5").evaluate({}) == 2

    def test_c99_truncating_division(self):
        assert parse_expression("7/2").evaluate({}) == 3
        assert parse_expression("0-7/2").evaluate({}) == -3  # trunc toward 0

    def test_modulo(self):
        assert parse_expression("7%3").evaluate({}) == 1

    def test_unknown_name(self):
        with pytest.raises(PragmaError, match="unknown parameter"):
            parse_expression("x+1").evaluate({})

    def test_division_by_zero(self):
        with pytest.raises(PragmaError, match="division by zero"):
            parse_expression("1/0").evaluate({})

    # One compiled closure tree serves both evaluators: ints keep C99
    # semantics whichever one is asked.
    @pytest.mark.parametrize("source, env, expected", [
        ("-7/2", {}, -3),
        ("7/-2", {}, -3),
        ("-7/-2", {}, 3),
        ("-7%3", {}, -1),       # sign follows the dividend, as in C99
        ("7%-3", {}, 1),
        ("+n-(-n)", {"n": 4}, 8),
        ("(n+1)*n/2", {"n": 9}, 45),
    ])
    def test_c99_on_both_evaluators(self, source, env, expected):
        expr = parse_expression(source)
        assert expr.evaluate(env) == expected
        assert expr.evaluate_symbolic(env) == expected

    @pytest.mark.parametrize("source, env, message, symbolic_too", [
        ("x+1", {}, "expression 'x+1' references unknown parameter 'x'", True),
        ("1/(n-n)", {"n": 3}, "division by zero evaluating '1/(n-n)'", True),
        ("5%z", {"z": 0}, "division by zero evaluating '5%z'", True),
        ("n+1", {"n": "abc"},
         "parameter 'n' used in expression 'n+1' is not an integer", False),
    ])
    def test_error_messages(self, source, env, message, symbolic_too):
        expr = parse_expression(source)
        with pytest.raises(PragmaError) as info:
            expr.evaluate(env)
        assert str(info.value) == message
        if symbolic_too:
            with pytest.raises(PragmaError) as info:
                expr.evaluate_symbolic(env)
            assert str(info.value) == message

    def test_evaluate_coerces_integer_likes(self):
        import numpy as np

        expr = parse_expression("n/2")
        assert expr.evaluate({"n": np.int64(-7)}) == -3
        assert type(expr.evaluate({"n": np.int64(-7)})) is int

    def test_names_collection(self):
        assert parse_expression("i+2*quarter-1").names() == {"i", "quarter"}

    def test_trailing_garbage(self):
        with pytest.raises(PragmaError, match="trailing"):
            parse_expression("1 2")

    def test_empty(self):
        with pytest.raises(PragmaError, match="empty"):
            parse_expression("   ")

    @given(
        a=st.integers(0, 1000), b=st.integers(0, 1000), c=st.integers(1, 100)
    )
    def test_matches_python_semantics(self, a, b, c):
        expr = parse_expression("a*b+a/c-b%c")
        expected = a * b + a // c - b % c  # all operands non-negative
        assert expr.evaluate({"a": a, "b": b, "c": c}) == expected

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_c99_division_identity(self, num, den):
        # (num/den)*den + num%den == num, C99 semantics.
        env = {"n": num, "d": den}
        q = parse_expression("n/d").evaluate(env)
        r = parse_expression("n%d").evaluate(env)
        assert q * den + r == num
        assert abs(r) < den


class TestSymbolicEvaluation:
    """``Expr.evaluate_symbolic`` over :class:`repro.check.Interval`
    operands — the abstract half of the one compiled expression."""

    I = Interval.from_range(0, 8)       # [0, 7]
    J = Interval(-1, 2)

    @pytest.mark.parametrize("source, expected", [
        ("i+3", Interval(3, 10)),
        ("3+i", Interval(3, 10)),
        ("i-2", Interval(-2, 5)),
        ("10-i", Interval(3, 10)),
        ("-i", Interval(-7, 0)),
        ("+i", Interval(0, 7)),
        ("i*j", Interval(-7, 14)),
        ("2*i", Interval(0, 14)),
        ("i/2", Interval(0, 3)),
        ("(0-i)/2", Interval(-4, 0)),   # covers truncation and flooring
        ("i/j", TOP),                   # the divisor may be zero
        ("i%4", Interval(0, 3)),
        ("(0-i)%4", Interval(-3, 3)),
        ("i%j", TOP),                   # only a constant modulus is bounded
        ("i/2*8+i%2*4+3", Interval(3, 31)),
    ])
    def test_interval_operands(self, source, expected):
        expr = parse_expression(source)
        got = expr.evaluate_symbolic({"i": self.I, "j": self.J})
        assert got == expected
        # Soundness: every concrete evaluation lies inside the interval.
        for i in range(0, 8):
            for j in range(-1, 3):
                try:
                    value = expr.evaluate({"i": i, "j": j})
                except PragmaError:     # a concrete division by zero
                    continue
                assert got.contains(value), (i, j, value)

    def test_from_range_and_join(self):
        assert Interval.from_range(10, 0, -3) == Interval(1, 10)
        with pytest.raises(ValueError, match="empty range"):
            Interval.from_range(3, 3)
        assert Interval(0, 3).join(Interval(5, 9)) == Interval(0, 9)
        assert Interval(0, 3).join(Interval(None, 1)) == Interval(None, 3)
        assert not Interval(None, 4).contains(5)
        assert str(Interval(None, 4)) == "[-inf, 4]"

    def test_symbolic_region_bounds(self):
        spec = parse_pragma("inout(a{i*4:4})").params[0].regions[0]
        lo, hi = spec.symbolic_bounds({"i": self.I})
        assert (lo, hi) == (Interval(0, 28), Interval(3, 31))
        assert spec.symbolic_bounds({"i": 2}) == spec.bounds({"i": 2}) == (8, 11)
