"""Integer partitions, boundary words, and rim-hook surgery.

A partition is stored as a weakly decreasing tuple of positive parts.  The
boundary word of its Young diagram is obtained by walking the profile from
the lower left to the upper right, writing 1 for every horizontal edge and
0 for every vertical edge.  We pack the walk into a single Python integer
with walk index 0 at the most significant bit, so bin(word) reads in walk
order: the word for (6,5,3,2,1,1) is 0b100101011010.  That plain int is the
only shape key below Partition.  Rim-hook removal, core testing and the
hook-length formula then reduce to shift/mask arithmetic on it, which is
what makes large-n character evaluation feasible.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial

from .errors import ResourceLimit, SnZerosError

# full-eval peak RSS: 49.6 MB at 65536 words, 46.7 at 16384, 45.4 at 8192, at the same pairs/s;
# 4096 took 7% more CPU on the heaviest pair for 0.1 MB less
BAG_SLICE = 8192


class Partition(namedtuple("Partition", "parts")):
    """A partition of a nonnegative integer; the empty tuple is the partition of 0."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> Partition:
        """Raise SnZerosError on an entry < 1, then on an increase."""
        # valid parts pass at C speed: the sampler builds one per draw
        if not (list(parts) == sorted(parts, reverse=True) and (not parts or parts[-1] >= 1)):
            for p in parts:
                if p < 1:
                    raise SnZerosError(f"part {p} is not a positive integer")
            for a, b in zip(parts, parts[1:]):
                if a < b:
                    raise SnZerosError(f"parts {a},{b} are out of order")
        return tuple.__new__(cls, (parts,))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def parse_code(text: str) -> int:
    """Parse a (possibly non-canonical) bit string such as 0b100101011010."""
    s = text[2:] if text.startswith(("0b", "0B")) else text
    if s == "" or any(ch not in "01" for ch in s):
        raise SnZerosError(f"not a bit string: {text!r}")
    return int(s, 2)


def encode(lam: Partition) -> int:
    """Canonical boundary word of a partition; inverse of decode.

    A canonical nonzero word starts with a 1 and ends with a 0, so the bare
    integer is a complete key and bin(word) is the walk; the empty partition
    has word 0.
    """
    word = 0
    prev = 0
    for part in reversed(lam.parts):
        run = part - prev
        word = (word << (run + 1)) | (((1 << run) - 1) << 1)
        prev = part
    return word


def decode(word: int) -> Partition:
    """Partition of a boundary word, which need not be canonical.

    Leading 0-bits would only produce empty rows, and trailing 1-bits never
    close a row and are ignored, so padded walks decode to the same shape.
    """
    parts_rev = []
    ones = 0
    for ch in bin(word)[2:]:
        if ch == "1":
            ones += 1
        elif ones:
            parts_rev.append(ones)
    return Partition(tuple(reversed(parts_rev)))


def conjugate(word: int) -> int:
    """Boundary word of the transposed diagram: the walk reversed, each step turned.

    Reversal keeps a canonical word canonical (first bit 1, last bit 0); conjugate(0) == 0.
    """
    return int(bin(word)[:1:-1], 2) ^ ((1 << word.bit_length()) - 1)


def is_t_core(word: int, t: int) -> bool:
    """True iff no rim hook of size t can be removed (no hook divisible by t)."""
    return ((word >> t) & ~word) == 0


def _slices_from_end(bag: dict[int, int]):
    """Empty the bag into two lists and yield their items from the end, a slice at a time."""
    keys, vals = list(bag), list(bag.values())
    bag.clear()
    while keys:  # a slice's words are freed here, once it has been walked
        yield zip(keys[-BAG_SLICE:], vals[-BAG_SLICE:])
        del keys[-BAG_SLICE:], vals[-BAG_SLICE:]


def remove_rim_hooks(bag: dict[int, int], t: int, cap: int | None = None) -> dict[int, int]:
    """One Murnaghan-Nakayama step on a sum of canonical words with nonzero coefficients.

    Every t-rim hook of every word in the bag is removed: flip a 1-bit and
    the 0-bit t walk steps later, with sign -1 to the number of 0-bits
    strictly between them.  Equal shapes are merged and zero coefficients
    dropped; the result has no particular order.  The bag is empty on return;
    over BAG_SLICE words, it is walked in slices freed once expanded.  A front over
    cap words after a slice but the last, or once zeros are dropped, raises ResourceLimit.
    """
    parity, ones = t & 1, (1 << t) - 1  # the hook at q has window low * ones, low = 1 << q
    new: dict[int, int] = {}
    get = new.get
    chunks = (bag.items(),) if (size := len(bag)) <= BAG_SLICE else _slices_from_end(bag)
    for chunk in chunks:  # a bag of one slice is one chunk, walked in place
        if cap is not None and len(new) > cap:  # the front after each slice but the last
            raise ResourceLimit(f"a Murnaghan-Nakayama bag exceeds bag cap {cap}")
        for w, c in chunk:
            mask = (w >> t) & ~w  # bit q set: 1-bit at q + t, 0-bit at q
            if mask & 1:  # only the hook at q = 0 leaves trailing 1-bits: drop them
                mask, nw = mask ^ 1, w - ones
                nw >>= (~nw & (nw + 1)).bit_length() - 1
                new[nw] = get(nw, 0) + (-c if (w & ones).bit_count() & 1 == parity else c)
            while mask:
                low = mask & -mask
                mask ^= low
                window = low * ones  # bits q..q+t-1, and bit q of w is 0
                nw = w - window  # clears bit q + t and sets bit q
                # k 1-bits in the window leave t - 1 - k 0-bits: odd iff k, t agree mod 2
                if (w & window).bit_count() & 1 == parity:
                    new[nw] = get(nw, 0) - c
                else:
                    new[nw] = get(nw, 0) + c
    bag.clear()
    if size > 1 and 0 in new.values():  # one word's hooks reach distinct shapes
        for w in [w for w, c in new.items() if not c]:
            del new[w]
    if cap is not None and len(new) > cap:  # the finished front
        raise ResourceLimit(f"a Murnaghan-Nakayama bag exceeds bag cap {cap}")
    return new


def dimension(word: int) -> int:
    """Degree of the irreducible character of a boundary word (its value on 1^n).

    Hook lengths are exactly the gaps p1-p0 over pairs (1-bit at p1, 0-bit at
    p0 < p1), so one ascending pass collects the hook product and the weight.
    """
    zeros = []
    prod = 1
    n = 0
    pos = 0
    w = word
    while w:
        if w & 1:
            for q in zeros:
                prod *= pos - q
            n += len(zeros)
        else:
            zeros.append(pos)
        w >>= 1
        pos += 1
    return factorial(n) // prod

