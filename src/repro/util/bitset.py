"""Compact bit-sets over non-negative integer ids.

The Taxogram occurrence indices (paper §3, Step 2) store occurrence-id
sets as bit vectors so that computing the occurrence set of a specialized
pattern is a single bitwise AND (Lemma 7).  Occurrence sets and support
sets (graph-id masks) are raw Python ints everywhere they are stored;
:func:`squeeze` renumbers such a mask after ids are dropped, and
:class:`BitSet` is the set-shaped wrapper over one int used by the
similarity prefilter and to list a mask's members.

All binary operations return new instances; in-place mutation is limited
to the ``*_update`` / ``add`` / ``discard`` / ``clear_bit`` family.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BitSet",
    "bit_flags",
    "kernel_counters",
    "kernel_delta",
    "reset_kernel_counters",
    "squeeze",
]


# ---------------------------------------------------------------------------
# Kernel counters
# ---------------------------------------------------------------------------
#
# Module-level work counters for the bit-set kernels, mirroring the
# MiningCounters discipline: cheap unconditional increments, read out as
# a namespaced ``bitset.*`` dict.  They are cumulative per process; use
# ``kernel_counters()`` to snapshot and ``kernel_delta(snapshot)`` to
# attribute work to one run (the store pipeline and the serving metrics
# endpoint both do).


class _KernelCounters:
    __slots__ = (
        "intersections",
        "unions",
        "differences",
        "popcounts",
        "jaccards",
        "offsets",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


_KERNEL = _KernelCounters()


def kernel_counters() -> dict[str, int]:
    """Cumulative ``bitset.*`` kernel counters for this process."""
    return {
        f"bitset.{name}": getattr(_KERNEL, name)
        for name in _KernelCounters.__slots__
    }


def kernel_delta(snapshot: Mapping[str, int]) -> dict[str, int]:
    """Counters accumulated since ``snapshot`` (zero entries dropped)."""
    out: dict[str, int] = {}
    for name, value in kernel_counters().items():
        delta = value - snapshot.get(name, 0)
        if delta:
            out[name] = delta
    return out


def reset_kernel_counters() -> None:
    for name in _KernelCounters.__slots__:
        setattr(_KERNEL, name, 0)


# ---------------------------------------------------------------------------
# Mask kernels
# ---------------------------------------------------------------------------

_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first: 1 if set, else 0.

    A selector for :func:`itertools.compress`, so picking the entries of
    a sequence at a mask's set positions runs in C.
    """
    return format(mask, "b").encode()[::-1].translate(_TO_FLAGS)


def squeeze(mask: int, keep: int) -> int:
    """The bits of ``mask`` at the set positions of ``keep``, packed down
    in order.

    Renumbers an id mask after the ids outside ``keep`` were dropped and
    the survivors shifted down: bit ``i`` of the result is the bit of
    ``mask`` at the ``i``-th set position of ``keep``.
    """
    digits = format(mask & keep, "b").encode()[::-1]
    kept = bytes(compress(digits, bit_flags(keep)))
    return int(kept[::-1] or b"0", 2)


# ---------------------------------------------------------------------------
# The bit-set
# ---------------------------------------------------------------------------


class BitSet:
    """A set of non-negative integers backed by one Python int.

    Bit ``i`` of :attr:`bits` is set iff ``i`` is a member, so every
    set-algebra operation is one C-speed int operation.
    """

    __slots__ = ("_bits",)

    def __init__(self, ids: Iterable[int] = ()) -> None:
        ids = set(ids)
        if ids and min(ids) < 0:
            raise ValueError(
                f"BitSet ids must be non-negative, got {min(ids)}"
            )
        self._bits = sum(map((1).__lshift__, ids))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_bits(cls, bits: int) -> "BitSet":
        """Build from a raw integer bit mask."""
        if bits < 0:
            raise ValueError("bit mask must be non-negative")
        out = cls.__new__(cls)
        out._bits = bits
        return out

    @classmethod
    def full(cls, n: int) -> "BitSet":
        """The set {0, 1, ..., n-1}."""
        if n < 0:
            raise ValueError("size must be non-negative")
        return cls.from_bits((1 << n) - 1)

    # -- basic protocol --------------------------------------------------------

    @property
    def bits(self) -> int:
        """The set as one raw integer mask."""
        return self._bits

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __contains__(self, i: int) -> bool:
        return i >= 0 and (self._bits >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        # Ascending, in C: peeling the lowest bit in Python would copy
        # the whole int per member.
        return compress(count(), bit_flags(self._bits))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitSet):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"BitSet({{{', '.join(map(str, self))}}})"

    # -- mutation --------------------------------------------------------------

    def add(self, i: int) -> None:
        if i < 0:
            raise ValueError(f"BitSet ids must be non-negative, got {i}")
        self._bits |= 1 << i

    def discard(self, i: int) -> None:
        if i >= 0:
            self._bits &= ~(1 << i)

    def union_update(self, other: "BitSet") -> None:
        """In-place union: add every member of ``other`` to this set."""
        _KERNEL.unions += 1
        self._bits |= other._bits

    def clear_bit(self, i: int) -> bool:
        """Remove ``i`` from the set; return whether it was present."""
        if i < 0 or (self._bits >> i) & 1 == 0:
            return False
        self._bits ^= 1 << i
        return True

    def difference_update(self, other: "BitSet") -> None:
        """In-place difference: remove every member of ``other``."""
        _KERNEL.differences += 1
        self._bits &= ~other._bits

    # -- set algebra -----------------------------------------------------------

    def __and__(self, other: "BitSet") -> "BitSet":
        _KERNEL.intersections += 1
        return BitSet.from_bits(self._bits & other._bits)

    def __or__(self, other: "BitSet") -> "BitSet":
        _KERNEL.unions += 1
        return BitSet.from_bits(self._bits | other._bits)

    def __xor__(self, other: "BitSet") -> "BitSet":
        return BitSet.from_bits(self._bits ^ other._bits)

    def __sub__(self, other: "BitSet") -> "BitSet":
        _KERNEL.differences += 1
        return BitSet.from_bits(self._bits & ~other._bits)

    def intersection(self, other: "BitSet") -> "BitSet":
        return self & other

    def union(self, other: "BitSet") -> "BitSet":
        return self | other

    def difference(self, other: "BitSet") -> "BitSet":
        return self - other

    def isdisjoint(self, other: "BitSet") -> bool:
        return self._bits & other._bits == 0

    def intersection_count(self, other: "BitSet") -> int:
        """``|self & other|`` without building a ``BitSet`` for it."""
        _KERNEL.intersections += 1
        _KERNEL.popcounts += 1
        return (self._bits & other._bits).bit_count()

    def overlap(self, other: "BitSet") -> int:
        """Alias of :meth:`intersection_count` (the historical name).

        The hot building block for similarity scoring: overlap /
        jaccard over fragment fingerprints run thousands of times per
        treelet-prefiltered query.
        """
        return self.intersection_count(other)

    def jaccard(self, other: "BitSet") -> float:
        """Jaccard similarity ``|A & B| / |A | B|``; two empty sets are
        identical, so the empty/empty case is defined as ``1.0``."""
        _KERNEL.jaccards += 1
        union = (self._bits | other._bits).bit_count()
        if union == 0:
            return 1.0
        return (self._bits & other._bits).bit_count() / union

    def issubset(self, other: "BitSet") -> bool:
        return self._bits & ~other._bits == 0

    def issuperset(self, other: "BitSet") -> bool:
        return other.issubset(self)

    def offset(self, k: int) -> "BitSet":
        """A new set with every member shifted up by ``k``."""
        if k < 0:
            raise ValueError(f"offset must be non-negative, got {k}")
        _KERNEL.offsets += 1
        return BitSet.from_bits(self._bits << k)

    def compact(self, id_map: Mapping[int, int]) -> "BitSet":
        """Members renumbered through ``id_map``; unmapped ones are dropped.

        Unlike :func:`squeeze`, ``id_map`` need not preserve order.
        """
        return BitSet(id_map[i] for i in self if i in id_map)

    def copy(self) -> "BitSet":
        return BitSet.from_bits(self._bits)
