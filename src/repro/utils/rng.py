"""Seeded random-number-generation helpers.

All stochastic components of the library (dataset generators, the TCIC
simulator, SKIM ranks, ConTinEst transmission times) accept either an integer
seed or a ready-made :class:`random.Random` instance.  :func:`resolve_rng`
normalises the two forms so that every experiment in the repository is
reproducible bit-for-bit given a seed.
"""

from __future__ import annotations

import random
from typing import Union

__all__ = ["resolve_rng", "spawn_rng"]

RngLike = Union[int, random.Random, None]


def resolve_rng(rng: RngLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``rng``.

    ``rng`` may be ``None`` (fresh unseeded generator), an ``int`` seed, or an
    existing :class:`random.Random` which is returned unchanged.
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise TypeError(
            f"rng must be None, an int seed, or random.Random, got {type(rng).__name__}"
        )
    return random.Random(rng)


def spawn_rng(parent: random.Random, stream: int) -> random.Random:
    """Derive an independent child generator from ``parent``.

    Used when an experiment needs several decorrelated streams (e.g. one per
    Monte-Carlo repetition) that are still fully determined by the parent
    seed.  ``stream`` distinguishes the children.
    """
    if not isinstance(stream, int) or isinstance(stream, bool):
        raise TypeError(f"stream must be an int, got {type(stream).__name__}")
    seed = (parent.getrandbits(64) << 16) ^ (stream * 0x9E3779B97F4A7C15)
    return random.Random(seed & 0xFFFFFFFFFFFFFFFF)
