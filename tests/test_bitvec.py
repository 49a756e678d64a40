import pytest

from fsrkit.bitvec import BitVec


def test_integer_encoding_is_low_bit_first():
    v = BitVec.from_bits([1, 0, 1])
    assert int(v) == 5
    assert v.bits() == (1, 0, 1)
    assert str(v) == "101"
    assert BitVec.parse("101") == v


def test_complement_flips_all_bits():
    assert BitVec.parse("101").complement() == BitVec.parse("010")
    assert BitVec(0, 3).complement() == BitVec(7, 3)


def test_order_is_integer_order():
    a, b = BitVec.parse("010"), BitVec.parse("101")
    assert a < b and b > a and a <= a and b >= b
    assert sorted([b, a]) == [a, b]


def test_validation():
    with pytest.raises(ValueError):
        BitVec(8, 3)
    with pytest.raises(ValueError):
        BitVec(0, 0)
    with pytest.raises(ValueError):
        BitVec.parse("10") ^ BitVec.parse("100")


def test_immutability_and_hash():
    v = BitVec.parse("01")
    with pytest.raises(AttributeError):
        v.value = 3
    assert len({v, BitVec.parse("01"), BitVec.parse("10")}) == 2
