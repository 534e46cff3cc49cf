"""Exact character evaluation and zero classification for symmetric groups.

The character value on a given cycle type is expanded by repeatedly removing
rim hooks whose sizes are the cycle lengths, largest first.  The expansion
front is a dictionary mapping canonical boundary words (plain ints, see
partitions) to exact integer coefficients, so shapes reached along many
removal paths are merged.  A step frees the old words slice by slice, so
memory peaks near one front plus one old slice.  Each step gets the bag cap
(ptable.CAPS), which partitions.remove_rim_hooks checks after each slice and on
the finished front; a front over it ends with ResourceLimit.
Once only fixed points (cycle length 1) remain, each word gets the hook-length formula.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import SnZerosError
from .partitions import Partition, dimension, encode, is_t_core, remove_rim_hooks
from .ptable import size_cap


class ZeroClass(namedtuple("ZeroClass", "is_zero is_type1 is_type2 evaluated")):
    """Classification of one character-table entry.

    is_type1: the row shape has no hook divisible by the largest cycle length.
    is_type2: ... by some cycle length (type 1 implies type 2).
    is_zero:  the value is exactly 0.  When evaluated is False the engine did
    not compute the value and is_zero merely repeats is_type2 (a lower bound).
    Otherwise it is exact, from the type-2 test or from full evaluation.
    """

    __slots__ = ()


def character(lam: Partition, mu: Partition) -> int:
    """Exact character value of the irreducible indexed by lam at cycle type mu."""
    if lam.n != mu.n:
        raise SnZerosError(f"lambda has weight {lam.n} but mu has weight {mu.n}")
    cap = size_cap("bag")
    bag = {encode(lam): 1}
    for t in mu.parts:
        if t == 1:
            break  # remaining parts are all 1: finish with dimensions
        bag = remove_rim_hooks(bag, t, cap)
        if not bag:
            return 0
    return sum(c * dimension(w) for w, c in bag.items())


def classify(lam: Partition, mu: Partition, evaluate: bool = True) -> ZeroClass:
    """Type-1/type-2 core tests for (lam, mu), optionally with full evaluation.

    The core tests are cheap bit scans and run first.  A type-2 witness
    certifies the zero by itself; otherwise only full evaluation can.
    """
    if lam.n != mu.n:
        raise SnZerosError(f"lambda has weight {lam.n} but mu has weight {mu.n}")
    word = encode(lam)
    is_type1 = bool(mu.parts) and is_t_core(word, mu.parts[0])
    if is_type1:
        is_type2 = True
    else:
        is_type2 = any(is_t_core(word, t) for t in set(mu.parts[1:]))
    if evaluate and not is_type2:
        is_zero = character(lam, mu) == 0
    else:
        is_zero = is_type2
    return ZeroClass(is_zero, is_type1, is_type2, evaluate)
