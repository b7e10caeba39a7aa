"""Carried values: a Laurent polynomial packed between ring operations.

Between the ring operations of ``laurent`` a polynomial is *carried*
(``_Carried``): its nonzero rows, e1 ascending, each cut to its lowest and
highest nonzero slot and packed from one base key at one slot size s, joined
in one bytes buffer.  A slot holds c + 2^(8s-1) little-endian, so it never
borrows from its neighbour.  ``_carry`` makes one from a term map and
``_term_map`` reads one back.  Beside the buffer a carried value keeps its
lattice step g (0 for a single e2 key) and bits(max|c|), read from the bytes
like ||value||_1: the slot magnitudes (``_magnitudes``: the top bit of each
slot flipped, and each negative slot negated in place) are one buffer of
nonnegative slots, whose highest nonzero byte column gives the bits and
whose byte column sums, weighted 256^k, give the norm.  Re-slotting to S
bytes (``_rows_at``) is s strided copies, out[k::S] = data[k::s] (one per
byte of S, with the top bit flipped, when S < s); a row's int less the
half-slot offset 2^(8*min(s, S) - 1) in every slot is then the row packed
at S, exact for signed slots whenever every |c| is below that offset.  When
the lattice step shrinks by a factor f, the copies land f slots apart.

The two-point row product of ``laurent`` (for long rows; division and
Miller's recurrence stay one-point, see ``laurent``) moves slots the same
way.  ``_split`` cuts packed rows into their even and odd slots, and
``_interleave`` joins each pair of halves back into one row.  Each writes
its rows as carried slots into one buffer and makes 2*size strided copies
over all of them at once.

Every helper here reads or writes that one layout; ``laurent`` does the ring
arithmetic on the packed rows ``_rows_at`` returns.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import itemgetter
from struct import iter_unpack
from typing import Iterable, Mapping

# Packed rows: (e1, slots from a base key to the row's lowest key, packed row).
Packed = list[tuple[int, int, int]]

# Maps of the top byte of a carried slot, c + 2^(8s-1): 0xFF where c < 0,
# and the byte with its top bit flipped.
_NEGATIVE = bytes([0xFF] * 0x80 + [0] * 0x80)
_FLIP = bytes(range(0x80, 0x100)) + bytes(range(0x80))


def _trailing_zeros(value: int) -> int:
    """The number of low zero bits of a nonzero int."""
    return (value & -value).bit_length() - 1


class _Carried:
    """A value packed between operations (see the module docstring).

    ``data`` holds the slots of every row, rows e1 ascending, ``size`` bytes a
    slot, each c + 2^(8*size - 1) little-endian.  Row (e1, at, count) has
    ``count`` slots, for the keys base + g*at, base + g*(at + 1), ..., its
    first and last ones nonzero.  Some row has at = 0, so ``base`` is the
    lowest e2; g is 0 for a single e2 key.  ``bits`` is bits(max|c|).
    """

    __slots__ = ("data", "rows", "base", "g", "size", "bits")

    def __init__(self, data: bytes, rows: list[tuple[int, int, int]], base: int, g: int,
                 size: int, bits: int):
        self.data, self.rows, self.base, self.g, self.size, self.bits = (
            data, rows, base, g, size, bits)


def _carry(terms: Mapping[tuple[int, int], int]) -> _Carried:
    """A nonzero canonical term map {(e1, e2): coeff} carried at the fewest
    bytes a slot that hold its coefficients, on the gcd of its e2 differences."""
    rows: dict[int, dict[int, int]] = {}
    for (e1, e2), coeff in terms.items():
        rows.setdefault(e1, {})[e2] = coeff
    lo = min(e2 for _, e2 in terms)
    g = gcd(*(e2 - lo for _, e2 in terms)) or 1
    size = max(map(abs, terms.values())).bit_length() // 8 + 1
    half, zero = 1 << 8 * size - 1, bytes(size - 1) + b"\x80"
    chunks = []
    for e1 in sorted(rows):
        row = rows[e1]
        low = min(row)
        raw = bytearray(zero * ((max(row) - low) // g + 1))
        for e2, coeff in row.items():
            at = (e2 - low) // g * size
            raw[at:at + size] = (coeff + half).to_bytes(size, "little")
        chunks.append((e1, (low - lo) // g, raw))
    return _joined(chunks, lo, g, size)


def _carry_rows(rows: Iterable[tuple[int, int]], base: int, g: int, size: int) -> _Carried:
    """Carry (e1, packed row) pairs, e1 ascending, each row packed from
    ``base`` in signed ``size``-byte slots; zero rows are dropped.

    A row's lowest nonzero slot is its trailing zero count over the slot
    width, and its highest lies at most one slot above its bit length over
    that width (exactly there when every |c| < 2^(8*size - 1)).
    """
    slot = 8 * size
    zero = bytes(size - 1) + b"\x80"
    chunks = []
    for e1, value in rows:
        if value:
            low = _trailing_zeros(value) // slot
            count = value.bit_length() // slot + 2 - low
            raw = ((value >> low * slot) + int.from_bytes(zero * count, "little")).to_bytes(
                count * size, "little")
            while raw.endswith(zero):
                raw = raw[:-size]
            chunks.append((e1, low, raw))
    return _joined(chunks, base, g, size)


def _joined(chunks: list, base: int, g: int, size: int) -> _Carried:
    """The carried value of rows (e1, slots from ``base`` to the row's first
    slot, the row's carried slots), e1 ascending, first and last slots
    nonzero.  When every row is one slot, the keys fix the lattice step.

    bits(max|c|) is read off the highest nonzero byte column of the slot
    magnitudes.
    """
    if not chunks:
        return _Carried(b"", [], base, g, size, 0)
    least = min(at for _, at, _ in chunks)
    lattice = 1
    if all(len(raw) == size for _, _, raw in chunks):
        lattice = gcd(*(at - least for _, at, _ in chunks))
    data = b"".join(raw for _, _, raw in chunks)
    magnitudes, bits = _magnitudes(data, size), 0
    for k in reversed(range(size)):
        column = magnitudes[k::size]
        if column.count(0) < len(column):
            bits = 8 * k + max(column).bit_length()
            break
    rows = [(e1, (at - least) // (lattice or 1), len(raw) // size) for e1, at, raw in chunks]
    return _Carried(data, rows, base + least * g, g * lattice, size, bits)


def _term_map(value: _Carried) -> dict[tuple[int, int], int]:
    """The canonical term map of a carried value."""
    size, g, half = value.size, value.g, 1 << 8 * value.size - 1
    slots = map(int.from_bytes, map(itemgetter(0), iter_unpack(f"{size}s", value.data)),
                repeat("little"))
    step, base = g or 1, value.base  # g = 0: every row is one slot
    # zip draws from its arguments left to right, so each row takes exactly
    # its own slots from the one iterator.
    return {(e1, e2): u - half
            for e1, at, count in value.rows
            for e2, u in zip(range(base + at * step, base + (at + count) * step, step), slots)
            if u != half}


def _slots(value: _Carried) -> int:
    """The slot count of a carried value, a bound on its term count."""
    return len(value.data) // value.size


def _lead(value: _Carried) -> int:
    """The coefficient of the lowest key of the lowest row."""
    return int.from_bytes(value.data[:value.size], "little") - (1 << 8 * value.size - 1)


def _magnitudes(data: bytes, size: int) -> bytearray:
    """The |c| of carried slots as nonnegative ``size``-byte slots.

    A slot holds u = c + 2^(8*size - 1), so c < 0 exactly when the top bit of
    its top byte is clear.  Flipping that bit gives c for c >= 0, and
    2^(8*size) - |c| for c < 0, which is replaced slot by slot.
    """
    top = data[size - 1::size]
    out = bytearray(data)
    out[size - 1::size] = top.translate(_FLIP)
    negative, full = top.translate(_NEGATIVE), 1 << 8 * size
    slot = negative.find(0xFF)
    while slot >= 0:
        at = slot * size
        out[at:at + size] = (full - int.from_bytes(out[at:at + size], "little")).to_bytes(
            size, "little")
        slot = negative.find(0xFF, slot + 1)
    return out


def _norm(value: _Carried) -> int:
    """||value||_1: the byte column sums of the slot magnitudes, weighted 256^k,
    up to the highest column that ``value.bits`` leaves nonzero."""
    size, magnitudes = value.size, _magnitudes(value.data, value.size)
    return sum(sum(magnitudes[k::size]) << 8 * k for k in range(-(-value.bits // 8)))


def _power_bits(value: _Carried, k: int) -> int:
    """Bits that hold every coefficient of value**j, j <= k, plus one: none
    exceeds ||value||_1^(k-1) * max|value|, whatever the signs."""
    return (_norm(value) ** (k - 1)).bit_length() + value.bits


def _reslot(data: bytes, old: int, size: int, width: int) -> bytearray:
    """Carried slots of ``old`` bytes moved to ``size`` bytes, ``width`` bytes
    apart, by strided byte copies.  A slot then holds
    c + 2^(8*min(old, size) - 1), exact whenever |c| is below that offset."""
    out = bytearray(len(data) // old * width)
    for k in range(min(old, size)):
        out[k::width] = data[k::old]
    if size < old:
        out[size - 1::width] = out[size - 1::width].translate(_FLIP)
    return out


def _offset_joined(values: list[int], counts: list[int], size: int) -> bytes:
    """Signed packed ints as carried slots joined in one buffer, ``counts[i]``
    slots of ``size`` bytes for ``values[i]``."""
    zero = bytes(size - 1) + b"\x80"
    return b"".join([(value + int.from_bytes(zero * count, "little")).to_bytes(
        count * size, "little") for value, count in zip(values, counts)])


def _offset_ints(data: bytes, counts: list[int], size: int) -> list[int]:
    """The signed packed ints of consecutive runs of ``counts[i]`` carried slots."""
    zero = bytes(size - 1) + b"\x80"
    values, end = [], 0
    for count in counts:
        start, end = end, end + count * size
        values.append(int.from_bytes(data[start:end], "little")
                      - int.from_bytes(zero * count, "little"))
    return values


def _split(values: list[int], size: int) -> list[tuple[int, int]]:
    """Each packed row cut into its even and its odd slots, each half packed at
    ``size`` bytes a slot, by strided byte copies over one buffer of them all.

    Exact whenever every |c| < 2^(8*size - 1): a row then has at most
    bits // (8*size) + 1 slots.
    """
    width = 2 * size
    pairs = [value.bit_length() // (8 * width) + 1 for value in values]
    data = _offset_joined(values, [2 * count for count in pairs], size)
    even, odd = bytearray(len(data) // 2), bytearray(len(data) // 2)
    for k in range(size):
        even[k::size] = data[k::width]
        odd[k::size] = data[size + k::width]
    return list(zip(_offset_ints(even, pairs, size), _offset_ints(odd, pairs, size)))


def _interleave(halves: list[tuple[int, int]], size: int) -> list[int]:
    """The inverse of ``_split``: each (even, odd) pair of packed halves as one
    row with their slots alternating, by strided byte copies.  Exact whenever
    every |c| < 2^(8*size - 1)."""
    width = 2 * size
    pairs = [max(even.bit_length(), odd.bit_length()) // (8 * size) + 1
             for even, odd in halves]
    even = _offset_joined([even for even, _ in halves], pairs, size)
    odd = _offset_joined([odd for _, odd in halves], pairs, size)
    data = bytearray(2 * len(even))
    for k in range(size):
        data[k::width] = even[k::size]
        data[size + k::width] = odd[k::size]
    return _offset_ints(data, [2 * count for count in pairs], size)


def _rows_at(value: _Carried, size: int, g: int) -> Packed:
    """The rows of a carried value packed at ``size`` bytes a slot on the
    lattice step g, which divides the value's: (e1, slots from its base, row).

    Exact whenever every |c| < 2^(8*min(size, value.size) - 1).
    """
    data, old = value.data, value.size
    spread = value.g // g if value.g else 1
    width = size * spread
    out = data if (size, spread) == (old, 1) else _reslot(data, old, size, width)
    longest = max(count for _, _, count in value.rows)
    half = bytearray(longest * width)
    half[min(old, size) - 1::width] = b"\x80" * longest
    rows, end = [], 0
    for e1, at, count in value.rows:
        start, end = end, end + count * width
        length = end - width + size - start
        rows.append((e1, at * spread, int.from_bytes(out[start:start + length], "little")
                     - int.from_bytes(half[:length], "little")))
    return rows
