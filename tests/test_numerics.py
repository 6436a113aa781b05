import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patprob.numerics import ExactProb, canonical, decimal_string


def ep(num, exp, base=2):
    return ExactProb(num, exp, base)


def fraction(x):
    return Fraction(x.num, x.base**x.den_exp)


def random_prob(rng, base, num_below, exp_below):
    """A random probability num / base**exp: exp < exp_below, num < num_below."""
    exp = rng.randrange(0, exp_below)
    return ExactProb(rng.randrange(0, min(num_below, base**exp + 1)), exp, base)


class TestConstruction:
    def test_zero_normalizes_exponent(self):
        assert ExactProb(0, 7, 2) == ExactProb(0, 0, 2)

    def test_strips_base_factors(self):
        assert ep(4, 3) == ep(1, 1)
        assert ep(6, 3) == ep(3, 2)

    def test_composite_base(self):
        assert ExactProb(6, 1, 6) == ExactProb(1, 0, 6)
        assert ExactProb(2, 1, 6).num == 2  # 2 not divisible by 6, stays

    def test_canonicalization_idempotent(self):
        rng = random.Random(20240809)
        for _ in range(500):
            base = rng.choice([2, 3, 5, 6, 10])
            x = random_prob(rng, base, 1000, 8)
            assert ExactProb(x.num, x.den_exp, x.base) == x

    @pytest.mark.parametrize("num,exp,base", [(-1, 0, 2), (1, -1, 2), (1, 0, 1), (1, 0, 0)])
    def test_invalid_fields_rejected(self, num, exp, base):
        with pytest.raises(ValueError):
            ExactProb(num, exp, base)

    # 2**1100 is past the float range, where the JSON form's approx would
    # overflow.
    @pytest.mark.parametrize(
        "num,exp,base",
        [
            (3, 1, 2),
            pytest.param(2**1100, 0, 2, id="2**1100-0-2"),
            (2, 0, 3),
            (10**6 + 1, 6, 10),
            pytest.param(2**66 + 1, 1, 2**64, id="2**66+1-1-2**64"),
        ],
    )
    def test_values_above_one_rejected(self, num, exp, base):
        with pytest.raises(ValueError, match=f"probability must be <= 1, got num > {base}\\*\\*{exp}"):
            ExactProb(num, exp, base)


def divide_out(num, exp, base):
    """Reference canonical form: divide by base while it divides."""
    if num == 0:
        return 0, 0
    while exp > 0 and num % base == 0:
        num //= base
        exp -= 1
    return num, exp


class TestCanonicalForm:
    # Powers of two take the trailing-zero shift, the others the division
    # loop; 2**33 makes one factor of the base span more than one 30-bit digit.
    BASES = [2, 3, 4, 8, 10, 16, 2**33]

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from(BASES),
        unit=st.integers(0, 10**12),
        power=st.integers(0, 120),
        exp=st.integers(0, 160),
    )
    def test_matches_division_reference(self, base, unit, power, exp):
        num = unit * base**power  # at least `power` factors of base
        assert canonical(num, exp, base) == divide_out(num, exp, base)

    def test_small_fields_match_division_reference(self):
        # Every num < 70 and den_exp < 8: each branch of canonical on fixed
        # input, such as the one factor of 2 in num = 2 (mod 4).
        for base in self.BASES:
            for num in range(70):
                for exp in range(8):
                    assert canonical(num, exp, base) == divide_out(num, exp, base)

    def test_partial_factor_of_a_power_of_two_base_stays(self):
        # 2 * 8**3 has 10 trailing zeros: three whole factors of 8, one bit left.
        assert canonical(2 * 8**3, 5, 8) == (2, 2)
        assert canonical(2 * 8**3, 2, 8) == (2 * 8, 0)


class TestArithmetic:
    def test_base_mismatch_raises(self):
        with pytest.raises(ValueError, match="base"):
            ExactProb(1, 1, 2) < ExactProb(1, 1, 3)

    def test_agrees_with_fraction_reference(self):
        rng = random.Random(1729)
        for _ in range(10_000):
            base = rng.choice([2, 3, 5, 10])
            a = random_prob(rng, base, 5000, 10)
            b = random_prob(rng, base, 5000, 10)
            fa, fb = fraction(a), fraction(b)
            assert (a == b) == (fa == fb)
            assert (a < b) == (fa < fb)
            assert (a > b) == (fa > fb)

    def test_ordering_operators(self):
        assert ep(3, 3) < ep(1, 1)
        assert not ep(1, 1) < ep(2, 2)


class TestRendering:
    @pytest.mark.parametrize(
        "num,exp,digits,expected",
        [
            (1, 2, 3, "0.250"),
            (3, 3, 2, "0.38"),   # 0.375 ties to even: 37|5 -> 38
            (1, 3, 2, "0.12"),   # 0.125 ties to even: 12|5 -> 12
            (1, 1, 1, "0.5"),
            (2, 1, 2, "1.00"),   # 1 itself; values above 1 are rejected
            (0, 0, 4, "0.0000"),
        ],
    )
    def test_to_decimal(self, num, exp, digits, expected):
        x = ExactProb(num, exp, 2)
        assert decimal_string(x.num, x.base**x.den_exp, digits) == expected

    def test_float_of_huge_operands(self):
        x = ExactProb(1, 400, 2)
        assert float(x) == 2.0**-400

    def test_json_round_trip(self):
        x = ExactProb(13, 5, 2)
        d = x.to_json_dict()
        assert d == {"num": "13", "base": 2, "den_exp": 5, "approx": 13 / 32}
        assert ExactProb.from_json_dict(d) == x

    def test_json_numerator_is_a_string(self):
        big = ExactProb(3**60, 96, 2)  # 3**60 < 2**96
        assert isinstance(big.to_json_dict()["num"], str)
        assert ExactProb.from_json_dict(big.to_json_dict()) == big

    # int() would read each of these: 2.9 as 2, "١_0" as 10, 2.5 as 2, " 4 " as 4.
    @pytest.mark.parametrize(
        "record,field",
        [
            pytest.param({"num": "1", "base": 2, "den_exp": 2.9}, "den_exp", id="float-den_exp"),
            pytest.param({"num": "١_0", "base": 2.5, "den_exp": " 4 "}, "num", id="arabic-num"),
            pytest.param({"num": "10", "base": 2.5, "den_exp": 4}, "base", id="float-base"),
            pytest.param({"num": "10", "base": 2, "den_exp": " 4 "}, "den_exp", id="str-den_exp"),
            pytest.param({"num": "1_0", "base": 2, "den_exp": 4}, "num", id="underscore-num"),
            pytest.param({"num": " 10", "base": 2, "den_exp": 4}, "num", id="space-num"),
            pytest.param({"num": "-1", "base": 2, "den_exp": 4}, "num", id="signed-num"),
            pytest.param({"num": "", "base": 2, "den_exp": 4}, "num", id="empty-num"),
            pytest.param({"num": 10, "base": 2, "den_exp": 4}, "num", id="int-num"),
            pytest.param({"num": "1", "base": True, "den_exp": 0}, "base", id="bool-base"),
            pytest.param({"num": "1", "base": 2, "den_exp": True}, "den_exp", id="bool-den_exp"),
            # Not a record to_json_dict writes: KeyError or TypeError escaped before.
            pytest.param({}, "num", id="missing-num"),
            pytest.param({"num": "1"}, "den_exp", id="missing-den_exp"),
            pytest.param({"num": "1", "den_exp": 0}, "base", id="missing-base"),
            pytest.param(None, "record", id="none-record"),
            pytest.param([1], "record", id="list-record"),
        ],
    )
    def test_json_malformed_field_rejected(self, record, field):
        with pytest.raises(ValueError, match=f"^malformed {field}: "):
            ExactProb.from_json_dict(record)


def test_values_match_fraction_on_float_conversion():
    rng = random.Random(99)
    for _ in range(200):
        base = rng.choice([2, 3])
        x = random_prob(rng, base, 10**6, 40)
        assert float(x) == float(fraction(x))
