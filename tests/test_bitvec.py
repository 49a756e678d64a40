from fsrkit.bitvec import (bits_to_digits, bits_to_mask, digits_to_bits,
                           mask_to_bits, prefix_xor)


def test_integer_encoding_is_low_bit_first():
    # (a0, a1, a2) = (1, 0, 1) is the integer 5 and the digits "101"
    assert bits_to_mask([1, 0, 1]) == 5
    assert mask_to_bits(5, 3) == bytes([1, 0, 1])
    assert bits_to_digits(mask_to_bits(5, 3)) == "101"
    assert bits_to_mask(digits_to_bits("101")) == 5
    assert mask_to_bits(1, 3) == bytes([1, 0, 0])


def test_prefix_xor_is_the_running_parity():
    for width in range(1, 9):
        for w in range(1 << width):
            acc, want = 0, 0
            for i in range(width):
                acc ^= (w >> i) & 1
                want |= acc << i
            assert prefix_xor(w, width) == want
