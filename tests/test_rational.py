import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcover.errors import CertificateFormatError
from jetcover.rational import rat, rat_str, ratio, ratio_str
from rational_reference import reference_rat  # local oracle

DIGIT_LIMIT = 4300  # CPython's default cap on int <-> decimal string conversion


@pytest.mark.parametrize("text", [
    "1_0", "1_0/2_0", "٣", "١/٢", "３", " 3", "3 ", "3\n", "+3", "+1/2", "1/+2",
    "1/-2", "- 3", "", "/2", "1/", "1//2", "0.75", "1e3", "1/0", "-0/0", "0x10",
])
def test_rat_accepts_only_ascii_p_over_q(text):
    with pytest.raises(CertificateFormatError):
        rat(text)


@pytest.mark.parametrize("text, value", [
    ("7", F(7)), ("-4/3", F(-4, 3)), ("6/4", F(3, 2)), ("-0", F(0)), ("007/014", F(1, 2)),
])
def test_rat_reads_ascii_p_over_q(text, value):
    assert rat(text) == value


@pytest.mark.parametrize("value", [True, 0.5, None, [1]])
def test_rat_refuses_other_types(value):
    with pytest.raises(TypeError):
        rat(value)


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
def test_short_values_round_trip_as_str_writes_them(p, q):
    value = F(p, q)
    assert rat_str(value) == ratio_str(value.numerator, value.denominator) == str(value)
    assert rat(rat_str(value)) == value


@pytest.mark.parametrize("num_digits, den_bits", [
    (DIGIT_LIMIT + 1, 1), (1, 4 * DIGIT_LIMIT), (3 * DIGIT_LIMIT, 8 * DIGIT_LIMIT),
])
def test_values_past_the_digit_limit_round_trip(num_digits, den_bits):
    value = F(-(10 ** num_digits - 7), 2 ** den_bits)
    text = rat_str(value)
    assert rat(text) == value
    limit = sys.get_int_max_str_digits()
    try:  # the oracle: str with the limit lifted, for this check alone
        sys.set_int_max_str_digits(0)
        assert text == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def parsed(parse, text):
    try:
        return parse(text)
    except CertificateFormatError:
        return "refused"


# one ASCII digit repeated past the digit limit, or one character that a
# looser parser would let through
TOKENS = st.one_of(
    st.sampled_from(list("0123456789-/+_ ٣²３")),
    st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(DIGIT_LIMIT - 2, 5000)),
)


@settings(max_examples=300)
@given(st.lists(TOKENS, max_size=8).map("".join))
def test_parser_accepts_what_the_regex_accepts_with_equal_values(text):
    assert parsed(rat, text) == parsed(reference_rat, text)


def outcome(parse, value):
    try:
        return parse(value)
    except (CertificateFormatError, TypeError) as exc:
        return type(exc), str(exc)


SCALARS = st.one_of(
    st.lists(TOKENS, max_size=8).map("".join),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
)


@settings(max_examples=300)
@given(SCALARS)
def test_ratio_is_the_reduced_pair_of_rat(value):
    # the same pair, or the same refusal with the same message
    pair = outcome(ratio, value)
    expected = outcome(rat, value)
    if isinstance(value, str):
        assert outcome(reference_rat, value) == expected
    if isinstance(expected, F):
        expected = expected.numerator, expected.denominator
        assert all(type(e) is int for e in pair) and pair[1] > 0
    assert pair == expected
