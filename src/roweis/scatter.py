"""Class statistics: the one pass that gives every fit S_T, S_W and Xc E.

Every fit solves from the moments of its centered coordinates Xc (the
centered data, the span coordinates Z = Q' Xc, or the kernel range's G H):
S_T = Xc Xc', the pooled within-class scatter S_W and the class sums Xc E,
with E the n x c class-indicator matrix (:class:`ClassMoments`), taken in
one pass over STATS_BLOCK-column slabs (:func:`class_moments`) that is
linear in the columns and in the class count c and holds O(d^2 + c d).
"""

from __future__ import annotations

import numpy as np

from ._util import classes, sym_in_place

# Columns of the coordinates per slab: every pass re-slices its blocks into
# these, so its bits do not depend on how the columns come in, held (one
# block) or streamed (the command line's parse blocks).
STATS_BLOCK = 1024


class ClassMoments:
    """What the eigen core solves from: ``scatter_total`` = Xc Xc' (S_T),
    ``scatter_within`` = S_W and ``class_sums`` = Xc E, in the labels'
    ``np.unique`` order. (A plain class: a dataclass costs every command
    about 9 KB more at import.)"""

    __slots__ = ("scatter_total", "scatter_within", "class_sums")

    def __init__(self, scatter_total, scatter_within, class_sums):
        self.scatter_total, self.scatter_within, self.class_sums = scatter_total, scatter_within, class_sums


class ClassStats:
    """What :func:`merge_slab` keeps of the columns so far: their count,
    mean (d x 1) and S_T; each key's class position (``index``), each
    class's count and mean (room to grow past c) and S_W (or None)."""

    __slots__ = ("count", "mean", "total", "index", "counts", "means", "within")

    def __init__(self, d: int, within: bool):
        self.count, self.mean, self.total = np.zeros(1), np.zeros((d, 1)), np.zeros((d, d))
        self.index, self.counts, self.means = {}, np.zeros(0), np.zeros((d, 0))
        self.within = np.zeros((d, d)) if within else None


def class_moments(blocks, d: int, n: int, read_keys=None, within: bool = True):
    """(:class:`ClassMoments`, mean, ids) of d x n coordinates given in
    column blocks, with the same bits however the blocks cut the columns;
    None where they hold fewer than n columns or two keys read as one label.

    ``blocks`` yields (features, keys): a d x k array and its columns'
    class keys, any hashable, sortable spelling of their labels.
    ``read_keys`` turns the list of distinct keys into labels, whose
    ``np.unique`` order (``ids``) orders the class sums; without it the
    keys are ignored and S_W, the class sums and ids are None. S_W, which a
    fit at r2 = 0 does not need, is None too unless ``within``.
    """
    keyed = read_keys is not None
    stats = ClassStats(d, keyed and within)
    width, slab = min(n, STATS_BLOCK), None
    work = np.empty(d * width)  # the merges' scratch d x m buffer
    pieces: list = []
    filled = seen = 0
    for part, keys in blocks:
        seen += part.shape[1]
        at = 0
        while at < part.shape[1]:
            take = min(width - filled, part.shape[1] - at)
            if filled == 0 and (take == width or seen >= n):
                # A whole slab, or the last one, inside the block: merged as it lies.
                merge_slab(stats, part[:, at:at + take], keys[at:at + take] if keyed else None, work)
            else:
                if slab is None:
                    slab = np.empty((d, width))
                slab[:, filled:filled + take] = part[:, at:at + take]
                if keyed:
                    pieces.append(keys[at:at + take])
                filled += take
                if filled == width:
                    merge_slab(stats, slab, np.concatenate(pieces) if keyed else None, work)
                    filled, pieces = 0, []
            at += take
        del part, keys  # one block live at a time
    if filled:
        merge_slab(stats, slab[:, :filled], np.concatenate(pieces) if keyed else None, work)
    del slab, work  # before the moments are formed
    if seen < n:
        return None
    if not keyed:
        return ClassMoments(sym_in_place(stats.total), None, None), stats.mean[:, 0], None
    ids, inverse = classes(read_keys(list(stats.index)))
    if ids.size < len(stats.index):
        return None
    order = np.argsort(inverse)
    sums = (stats.means[:, order] - stats.mean) * stats.counts[order]
    within = None if stats.within is None else sym_in_place(stats.within)
    return ClassMoments(sym_in_place(stats.total), within, sums), stats.mean[:, 0], ids


def merge_slab(stats: ClassStats, slab, keys, work) -> None:
    """Merge the d x m ``slab`` into ``stats``, by its columns' class keys
    unless ``keys`` is None, with ``work`` (at least d m doubles) for
    scratch and no loop over the classes.

    S_T takes the product of the slab's centered columns. With keys, one
    stable sort of the slab's own keys and ``np.add.reduceat`` give each
    class's sum, and S_W the product of the columns centered on their class
    means; a dict maps the keys to class positions in order of first
    appearance. Both take the pairwise update of Chan, Golub & LeVeque 1983
    ("Algorithms for computing the sample variance", Am. Stat.): for counts
    a and b and delta = m_b - m_a of the means, the mean gains delta b /
    (a + b) and the scatter (a b / (a + b)) delta delta', for all classes at
    once. The bits depend on the columns and their order alone.
    """
    d, m = slab.shape
    work = work[:d * m].reshape(d, m)
    np.copyto(work, slab)  # so that no bit depends on the slab's layout
    mean = work.sum(axis=1, keepdims=True) / m
    work -= mean
    first = not stats.count[0]
    _update(stats.total, stats.count, stats.mean, [0], np.array([m], dtype=float), mean, work, first)
    if keys is None:
        return
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    sizes = np.diff(np.append(starts, m))
    np.take(slab, order, axis=1, out=work, mode="clip")  # "raise" would buffer ``out``
    means = np.add.reduceat(work, starts, axis=1) / sizes
    if stats.within is not None:
        group = np.empty(m, dtype=np.intp)
        group[order] = np.repeat(np.arange(starts.size), sizes)
        np.take(means, group, axis=1, out=work, mode="clip")
        np.subtract(slab, work, out=work)
    # The slab's classes in order of first appearance, and their positions.
    rank = np.argsort(order[starts])
    index = stats.index
    slots = np.array([index.setdefault(key, len(index)) for key in ordered[starts[rank]].tolist()], dtype=np.intp)
    if len(index) > stats.counts.size:
        room = max(len(index), 2 * stats.counts.size)
        stats.counts = np.concatenate([stats.counts, np.zeros(room - stats.counts.size)])
        stats.means = np.concatenate([stats.means, np.zeros((d, room - stats.means.shape[1]))], axis=1)
    _update(stats.within, stats.counts, stats.means, slots, sizes[rank].astype(float), means[:, rank], work, first)


def _update(scatter, counts, means, slots, count, new, centered, first: bool) -> None:
    """The pairwise update of the classes at ``slots`` (their ``counts`` and
    d x c ``means``) by ``count`` columns each, of means ``new``, and of
    ``scatter`` (unless None) by the product of the ``centered`` columns and
    the correction; on a pass's ``first`` slab, whose weights are all 0,
    the product is written straight into the empty scatter."""
    before = counts[slots]
    total = before + count
    delta = new - means[:, slots]
    means[:, slots] += delta * (count / total)
    counts[slots] = total
    if scatter is None:
        return
    if first:
        np.matmul(centered, centered.T, out=scatter)
        return
    scatter += centered @ centered.T
    scatter += (delta * (before * count / total)) @ delta.T
