"""Integer partitions, boundary words, hook lengths, and rim-hook surgery.

A partition is stored as a weakly decreasing tuple of positive parts.  The
boundary word of its Young diagram is obtained by walking the profile from
the lower left to the upper right, writing 1 for every horizontal edge and
0 for every vertical edge.  We pack the walk into a single Python integer
with walk index 0 at the most significant bit, so the word for (6,5,3,2,1,1)
prints as 0b100101011010.  Rim-hook removal and core testing then reduce to
shift/mask arithmetic on that integer, which is what makes large-n character
evaluation feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import NonPositivePart, NotWeaklyDecreasing


@dataclass(frozen=True)
class Partition:
    """A partition of a nonnegative integer; the empty tuple is the partition of 0."""

    parts: tuple[int, ...]

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def from_parts(parts: Sequence[int] | Iterable[int]) -> Partition:
    """Validate a sequence of parts and return the Partition it defines.

    Raises NonPositivePart if any entry is < 1 and NotWeaklyDecreasing if
    the entries ever increase.
    """
    t = tuple(parts)
    for p in t:
        if p < 1:
            raise NonPositivePart(f"part {p} is not a positive integer")
    for a, b in zip(t, t[1:]):
        if a < b:
            raise NotWeaklyDecreasing(f"parts {a},{b} are out of order")
    return Partition(t)


@dataclass(frozen=True)
class BoundaryCode:
    """Boundary word of a Young diagram packed into an integer.

    Walk index a (0 = first edge at the lower left) lives at bit position
    length-1-a, so the printed binary literal reads in walk order.  Canonical
    codes start with a 1 and end with a 0; the empty partition has word 0 and
    length 0.  A canonical nonzero word is always even and its bit_length
    equals its length, so the bare integer is a complete canonical key.
    """

    word: int
    length: int

    @classmethod
    def canonical(cls, word: int) -> "BoundaryCode":
        """Canonicalize a walk word: drop trailing 1-bits and leading 0-bits."""
        while word & 1:
            word >>= 1
        return cls(word, word.bit_length())

    def bit(self, a: int) -> int:
        """The bit at walk index a (0 or 1)."""
        return (self.word >> (self.length - 1 - a)) & 1

    def text(self) -> str:
        """Walk-order bit string with a 0b prefix, e.g. 0b100101011010."""
        if self.length == 0:
            return "0b0"
        return "0b" + format(self.word, f"0{self.length}b")


def parse_code(text: str) -> BoundaryCode:
    """Parse a (possibly non-canonical) bit string such as 0b100101011010."""
    s = text[2:] if text.startswith(("0b", "0B")) else text
    if s == "" or any(ch not in "01" for ch in s):
        raise ValueError(f"not a bit string: {text!r}")
    return BoundaryCode(int(s, 2), len(s))


def encode(lam: Partition) -> BoundaryCode:
    """Boundary word of a partition; inverse of decode on canonical codes."""
    word = 0
    prev = 0
    for part in reversed(lam.parts):
        run = part - prev
        word = (word << (run + 1)) | (((1 << run) - 1) << 1)
        prev = part
    if lam.parts:
        return BoundaryCode(word, lam.parts[0] + len(lam.parts))
    return BoundaryCode(0, 0)


def decode(code: BoundaryCode) -> Partition:
    """Partition encoded by a boundary word, after normalizing the word.

    Leading 0-bits produce empty rows and are dropped; trailing 1-bits never
    close a row and are ignored, so decode is insensitive to the padding that
    makes boundary words non-unique.
    """
    word, length = code.word, code.length
    parts_rev = []
    ones = 0
    for a in range(length):
        if (word >> (length - 1 - a)) & 1:
            ones += 1
        elif ones:
            parts_rev.append(ones)
    return Partition(tuple(reversed(parts_rev)))


def hook_lengths(lam: Partition) -> list[int]:
    """All hook lengths of the diagram, straight from the definition.

    h(i,j) = lam_i - j + #{s >= i : lam_s >= j}.  Quadratic and only used as
    an oracle and for small shapes; hot paths work on boundary words instead.
    """
    parts = lam.parts
    ell = len(parts)
    hooks = []
    for i in range(ell):
        for j in range(1, parts[i] + 1):
            col = sum(1 for s in range(i, ell) if parts[s] >= j)
            hooks.append(parts[i] - j + col)
    return sorted(hooks)


def is_t_core(code: BoundaryCode, t: int) -> bool:
    """True iff no rim hook of size t can be removed (no hook divisible by t)."""
    return ((code.word >> t) & ~code.word) == 0


def remove_rim_hooks(bag: dict[int, int], t: int) -> dict[int, int]:
    """One Murnaghan-Nakayama step on a signed sum of canonical words.

    Every t-rim hook of every word in the bag is removed: flip a 1-bit and
    the 0-bit t walk steps later, with sign -1 to the number of 0-bits
    strictly between them.  Equal shapes are merged and zero coefficients
    dropped.  The removals of one word are inserted by descending walk index
    of the flipped 1-bit.
    """
    inner = (1 << (t - 1)) - 1
    new: dict[int, int] = {}
    get = new.get
    for w, c in bag.items():
        mask = (w >> t) & ~w  # bit q set: 1-bit at q + t, 0-bit at q
        while mask:
            low = mask & -mask
            mask ^= low
            q = low.bit_length() - 1
            nw = w ^ (low << t) ^ low
            while nw & 1:
                nw >>= 1
            if (t - 1 - ((w >> (q + 1)) & inner).bit_count()) & 1:
                new[nw] = get(nw, 0) - c
            else:
                new[nw] = get(nw, 0) + c
    return {w: c for w, c in new.items() if c}


def rim_hook_removals(code: BoundaryCode, t: int) -> list[tuple[BoundaryCode, int]]:
    """All single t-rim-hook removals with their signs (see remove_rim_hooks).

    Results are ordered by ascending walk index of the flipped 1-bit.  The
    removals of one shape are distinct shapes, so none merge or cancel.
    """
    bag = remove_rim_hooks({code.word: 1}, t)
    return [(BoundaryCode(w, w.bit_length()), s) for w, s in reversed(bag.items())]


def dimension_from_word(word: int) -> int:
    """Degree of the irreducible character for a canonical boundary word.

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


def dimension(lam: Partition) -> int:
    """Exact n! / (product of hook lengths); the character value on 1^n."""
    return dimension_from_word(encode(lam).word)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of n as weakly decreasing tuples (largest part first)."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest
