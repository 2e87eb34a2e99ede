"""Iteration-atom pattern classification for the cycle counter.

:func:`repro.sim.cycles.classify_patterns` groups a nest's iterations by
their per-channel miss bits.  Its reference path ORs every channel's
full miss grid into one integer per iteration and histograms the
result, so each call costs ``O(channels x iterations)``.  A sweep (and
OPT-RA's branch-and-bound above all) classifies the same kernel tens of
thousands of times, but over a small, fixed vocabulary of masks: one
per (group, access kind, covered count, anchor).  Taken together those
masks cut the iteration space into few *atoms* — sets of iterations
whose miss bit agrees on every mask (tens to ~150 on the registered
kernels, against 2,048-61,504 iterations).

:class:`PatternClassifier` keeps that partition per kernel and refines
it lazily: a mask seen for the first time is checked against the
current atoms in one ``O(iterations)`` pass; if it is not constant on
some atom, that atom splits (new id = ``2 * atom + bit``, renumbered)
and every stored atom-level vector is re-projected through the
child -> parent map.  After that, classifying any combination of known
masks costs ``O(channels x atoms)``, and the pattern histogram is the
atom sizes summed per pattern value — exactly the reference histogram,
since every iteration of an atom carries the same pattern.

Invariants:

* ``atom_of[i]`` is the atom of flat iteration ``i``; ``sizes`` sums to
  the iteration count; ``reps[a]`` is an iteration inside atom ``a``.
* Every stored mask is constant on every atom, and its vector holds that
  constant per atom.
* The partition is the coarsest one refining every registered mask, so
  it is the same set of atoms in any registration order (only the
  numbering differs, and the histogram is keyed by pattern value).

A mask that splits every atom degrades the partition to one atom per
iteration: classification stays exact and costs what the full grid
costs.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.dfg.nodes import ReadNode, WriteNode
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DataFlowGraph

__all__ = ["PatternClassifier", "node_channels", "pattern_maps"]

#: Pattern value of a miss on each channel (the classifier takes <= 20).
_BIT_WEIGHTS = np.left_shift(1, np.arange(20, dtype=np.int64))


def node_channels(
    dfg: "DataFlowGraph", signature: "tuple[tuple[str, str], ...]"
) -> "tuple[tuple[str, int], ...]":
    """``(node uid, channel bit)`` for every memory node a channel drives.

    ``signature`` lists each channel's ``(group, kind)`` in bit order; a
    read (write) node follows the first read (write) channel of its
    group, and a node with no channel always hits.  Pairs come in DFG
    node order.
    """
    pairs: "list[tuple[str, int]]" = []
    for node in dfg.nodes:
        if isinstance(node, ReadNode):
            kind = "read"
        elif isinstance(node, WriteNode):
            kind = "write"
        else:
            continue
        for bit, (group_name, ch_kind) in enumerate(signature):
            if ch_kind == kind and group_name == node.group_name:
                pairs.append((node.uid, bit))
                break
    return tuple(pairs)


def pattern_maps(
    signature: "tuple[tuple[str, str], ...]",
    pairs: "tuple[tuple[str, int], ...]",
    value: int,
) -> "tuple[dict[str, bool], tuple[str, ...]]":
    """The node hit map and the ``group:kind`` miss labels of ``value``."""
    hit = {uid: not (value >> bit) & 1 for uid, bit in pairs}
    misses = tuple(
        f"{group}:{kind}"
        for bit, (group, kind) in enumerate(signature)
        if (value >> bit) & 1
    )
    return hit, misses


class PatternClassifier:
    """The atom partition of one kernel's iteration space (see module doc).

    Bound to one DFG (the kernel bundle's); masks must have the nest's
    shape and must not change after they are first classified — the
    coverage masks they come from are immutable.  Masks are remembered
    by identity for as long as they live.
    """

    def __init__(self, shape: "tuple[int, ...]", dfg: "DataFlowGraph") -> None:
        self.shape = tuple(int(n) for n in shape)
        self.space = int(np.prod(self.shape, dtype=np.int64))
        self.dfg = dfg
        self._atom_of = np.zeros(self.space, dtype=np.intp)
        self._sizes = np.array([self.space], dtype=np.int64)
        self._reps = np.zeros(1, dtype=np.intp)
        #: id(mask) -> (weak reference to the mask, bit per atom).  A hit
        #: requires the reference to resolve to the very same array, so
        #: a recycled id never answers for another mask, and the
        #: classifier keeps no mask alive.
        self._vectors: "dict[int, tuple[weakref.ref, np.ndarray]]" = {}
        self._node_maps: "dict[tuple, tuple[tuple[str, int], ...]]" = {}
        self._maps: "dict[tuple, tuple[dict[str, bool], tuple[str, ...]]]" = {}

    @property
    def atoms(self) -> int:
        """Current number of atoms."""
        return int(self._sizes.size)

    def pattern_maps(
        self, signature: "tuple[tuple[str, str], ...]", value: int
    ) -> "tuple[dict[str, bool], tuple[str, ...]]":
        """:func:`pattern_maps` over the bound DFG, memoized.

        The hit map is shared between calls: schedulers must only read it.
        """
        maps = self._maps.get((signature, value))
        if maps is None:
            pairs = self._node_maps.get(signature)
            if pairs is None:
                pairs = node_channels(self.dfg, signature)
                self._node_maps[signature] = pairs
            maps = pattern_maps(signature, pairs, value)
            self._maps[(signature, value)] = maps
        return maps

    def vector(self, mask: np.ndarray) -> np.ndarray:
        """``mask`` as one bit per atom, refining the partition if needed."""
        # repro-lint: ok determinism:id-key -- a hit requires the entry's weak reference to resolve to this very array (`is`), so a recycled id cannot answer for another mask
        entry = self._vectors.get(id(mask))
        if entry is not None and entry[0]() is mask:
            return entry[1]
        if tuple(mask.shape) != self.shape:
            raise SimulationError(
                f"mask shape {tuple(mask.shape)} does not match the "
                f"iteration space {self.shape}"
            )
        flat = np.asarray(mask, dtype=bool).reshape(-1)
        bits = flat[self._reps]
        split = flat != bits[self._atom_of]
        if split.any():
            self._refine(flat, split)
            bits = flat[self._reps]
        # repro-lint: ok determinism:id-key -- stored with a weak reference to the mask it names; see the lookup above
        self._vectors[id(mask)] = (weakref.ref(mask), bits)
        return bits

    def _refine(self, flat: np.ndarray, split: np.ndarray) -> None:
        """Split every atom on which ``flat`` is not constant."""
        count = self._sizes.size
        raw = 2 * self._atom_of + flat
        present = np.zeros(2 * count, dtype=bool)
        present[raw] = True
        renumber = np.cumsum(present) - 1
        parents = np.flatnonzero(present) // 2
        atom_of = renumber[raw]
        # The old representative stays the representative of its child;
        # an atom split off holds only mismatching iterations, and its
        # first one represents it.
        reps = np.empty(parents.size, dtype=np.intp)
        reps[atom_of[self._reps]] = self._reps
        moved = np.flatnonzero(split)
        children, first = np.unique(atom_of[moved], return_index=True)
        reps[children] = moved[first]
        self._atom_of = atom_of
        self._sizes = np.bincount(atom_of, minlength=parents.size).astype(
            np.int64
        )
        self._reps = reps
        self._vectors = {
            key: (ref, bits[parents])
            for key, (ref, bits) in self._vectors.items()
            if ref() is not None
        }

    def histogram(
        self, masks: "list[np.ndarray]"
    ) -> "list[tuple[int, int]]":
        """``(pattern value, iterations)`` for each pattern that occurs.

        Bit ``b`` of a pattern value is mask ``b``'s miss bit; values
        come in ascending order, as the reference full-grid histogram
        lists them.
        """
        atoms = self._sizes.size
        vectors = [self.vector(mask) for mask in masks]
        if self._sizes.size != atoms:  # a split renumbered the atoms
            atoms = self._sizes.size
            vectors = [self.vector(mask) for mask in masks]
        bits = np.array(vectors, dtype=bool).reshape(len(vectors), atoms)
        pattern = _BIT_WEIGHTS[: len(vectors)] @ bits
        # Float weights are exact here: no count exceeds the iteration
        # count, far below 2**53.
        counts = np.bincount(pattern, weights=self._sizes)
        values = np.flatnonzero(counts)
        return list(
            zip(values.tolist(), counts[values].astype(np.int64).tolist())
        )
