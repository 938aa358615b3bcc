"""Cache-sized blocks for bulk field queries.

The procedural SDF and radiance compositions allocate dozens of per-point
temporaries per call.  Evaluated over a whole grid at once they fall out of
cache and run 2-3x slower per point, and the temporaries dominate a bake's
peak memory.  Every bulk field query (voxelisation, atlas baking, volume
sampling) therefore walks its points in blocks of about :data:`FIELD_BLOCK`
points, building each block's query points inside the loop — the
``netchunk`` batching of the original NeRF code.

A field is never handed a one-point block unless the whole query is one
point: NumPy evaluates a ``(1, 3) @ (3,)`` product outside BLAS, which
rounds differently in the last bit from the same row inside a larger
product (``sdf_capsule``, the degradation hash and geometry noise all carry
such products).  Any split into blocks of two or more rows is bit-identical
to one call, so :func:`block_ranges` folds a one-item remainder into the
block before it.
"""

from __future__ import annotations

#: Points per field query.  Measured on a 2-core x86 host (voxeliser and
#: atlas bake): blocks of 8,192 and 16,384 points tie; 2,048, 65,536 and
#: 262,144 are slower.
FIELD_BLOCK = 8192


def block_ranges(total: int, item_points: int = 1) -> list:
    """Consecutive ``(start, stop)`` blocks covering ``range(total)``.

    Args:
        total: number of items to query.
        item_points: field points per item (texels per face, samples per
            ray, ...); a block holds ``max(1, FIELD_BLOCK // item_points)``
            items.

    Returns:
        The blocks in order, none empty.  A final remainder of one item is
        folded into the block before it, so with one point per item no
        block has one point unless ``total == 1``.
    """
    if total < 0 or item_points < 1:
        raise ValueError("block_ranges needs total >= 0 and item_points >= 1")
    size = max(1, FIELD_BLOCK // int(item_points))
    starts = list(range(0, total, size))
    if len(starts) > 1 and total - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [total]))
