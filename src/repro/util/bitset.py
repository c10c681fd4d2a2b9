"""Compact bit-sets over non-negative integer ids.

The Taxogram occurrence indices (paper §3, Step 2) store occurrence-id
sets as bit vectors so that computing the occurrence set of a specialized
pattern is a single bitwise AND (Lemma 7).  The Step-3 hot path works on
raw Python ints directly; :class:`BitSet` is the set-shaped wrapper over
one such int used by the negative border, the parallel merge and the
similarity prefilter.

All binary operations return new instances; in-place mutation is limited
to the ``*_update`` / ``add`` / ``discard`` / ``clear_bit`` family.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

__all__ = [
    "BitSet",
    "kernel_counters",
    "kernel_delta",
    "reset_kernel_counters",
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
# The bit-set
# ---------------------------------------------------------------------------


class BitSet:
    """A set of non-negative integers backed by one Python int.

    Bit ``i`` of :attr:`bits` is set iff ``i`` is a member, so every
    set-algebra operation is one C-speed int operation.
    """

    __slots__ = ("_bits",)

    def __init__(self, ids: Iterable[int] = ()) -> None:
        bits = 0
        for i in ids:
            if i < 0:
                raise ValueError(f"BitSet ids must be non-negative, got {i}")
            bits |= 1 << i
        self._bits = bits

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
        # Render the mask as binary text once (lowest bit first) and hop
        # between the ones: O(#bits) in C plus O(#members) in Python,
        # where peeling the lowest bit would copy the whole int per member.
        text = format(self._bits, "b")[::-1]
        i = text.find("1")
        while i >= 0:
            yield i
            i = text.find("1", i + 1)

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
        """Remove ``i`` from the set; return whether it was present.

        The incremental updater uses the return value to count how many
        occurrence columns a removal actually cleared.
        """
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
        """A new set with every member shifted up by ``k``.

        Re-bases a shard-local id set onto a global id space (the query
        router ORs offset per-shard support sets together).
        """
        if k < 0:
            raise ValueError(f"offset must be non-negative, got {k}")
        _KERNEL.offsets += 1
        return BitSet.from_bits(self._bits << k)

    def compact(self, id_map: Mapping[int, int]) -> "BitSet":
        """A new set with every member renumbered through ``id_map``.

        Members absent from ``id_map`` are dropped — this is how
        compaction discards dead occurrence/graph ids while densifying
        the survivors.
        """
        out = BitSet()
        for i in self:
            j = id_map.get(i)
            if j is None:
                continue
            if j < 0:
                raise ValueError(f"compact ids must be non-negative, got {j}")
            out._bits |= 1 << j
        return out

    def copy(self) -> "BitSet":
        return BitSet.from_bits(self._bits)

    def to_set(self) -> set[int]:
        """Materialize as a plain Python set (mostly for tests/debugging)."""
        return set(self)
