"""Fixed-width bit vectors with low-bit-first integer encoding.

A vector (a0, a1, ..., a_{m-1}) is the integer
a0 + 2*a1 + ... + 2^{m-1}*a_{m-1}, so a0 is the least significant bit
and the order relation on vectors of equal width is plain integer order.
The package holds register states, circuit inputs and witnesses as plain
ints of this encoding; the width is the register's stage or the
circuit's arity.

The same encoding turns an integer mask into per-index bits: bit i of the
mask is entry i.  `mask_to_bits` and `bits_to_mask` convert between the
two, and `bits_to_digits` and `digits_to_bits` between bits and the 0/1
digit strings of the text formats, all in time linear in the width, which
matters for feedback tables of 2^n entries.  Feedback tables and cycles
hold the bytes of 0/1 that `as_bits` checks and returns.
"""

from __future__ import annotations

_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
#: the translate table that flips every entry of bytes of 0/1
FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def digits_to_bits(digits) -> bytes:
    """A string of 0/1 digits, as str or as its ASCII bytes, as bytes of
    0/1; entry i is character i."""
    data = digits.encode("ascii", "replace") if isinstance(digits, str) else digits
    if data.translate(None, b"01"):
        raise ValueError("digits must be 0 or 1")
    return data.translate(_FROM_DIGITS)


def as_bits(bits) -> bytes:
    """A sequence of 0/1 values as bytes of 0/1; an entry other than 0 or 1
    raises ValueError."""
    if hasattr(bits, "__index__"):   # bytes(n) would read as n zero entries
        raise TypeError("bits must be a sequence, not an int")
    try:
        data = bytes(bits)
    except (TypeError, ValueError):
        raise ValueError("bits must be 0 or 1") from None
    if data.translate(None, b"\x00\x01"):
        raise ValueError("bits must be 0 or 1")
    return data


def bits_to_digits(bits) -> str:
    """A sequence of 0/1 values as a string of 0/1 digits; character i is
    entry i."""
    return as_bits(bits).translate(_TO_DIGITS).decode("ascii")


def mask_to_bits(mask: int, n: int) -> bytes:
    """The n entries of a mask as bytes of 0/1; entry i is bit i."""
    if mask < 0 or mask.bit_length() > n:
        raise ValueError(f"mask out of range for {n} entries")
    # the top sentinel bit keeps leading zeros; [:0:-1] reverses and drops it
    return digits_to_bits(format(mask | (1 << n), "b")[:0:-1])


def xor_bits(a: bytes, b: bytes) -> bytes:
    """The entrywise XOR of two bytes of 0/1 of equal length."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
            ).to_bytes(len(a), "little")


def prefix_xor(w: int, width: int) -> int:
    """The width-bit word whose bit i is the XOR of bits 0..i of w: a
    shift and XOR for each doubling of the prefix length."""
    shift = 1
    while shift < width:
        w ^= w << shift
        shift <<= 1
    return w & ((1 << width) - 1)


def bits_to_mask(bits) -> int:
    """The mask whose bit i is entry i of a sequence of 0/1 values."""
    return int("0" + bits_to_digits(bits)[::-1], 2)

