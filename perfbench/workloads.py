"""Workload definitions: one fixed CLI sweep and a seeded query stream."""

from __future__ import annotations

import math
import random

SWEEPS = {
    "heat-195-4d": ["sweep", "195", "195", "--mode", "heat-degenerate", "--padding", "1"],
}
COMMON = ["--format", "json-lines", "--threads", "1"]
WORKLOADS = (*SWEEPS, "queries")

QMIN, QMAX = 8, 400
KMAX_MAX = 64
# Command mix per block of ten queries: isospectral:spectrum:isometric:heat = 4:3:2:1.
MIX = ("isospectral",) * 4 + ("spectrum",) * 3 + ("isometric",) * 2 + ("heat",)


def sweep_argv(workload: str) -> list[str]:
    return SWEEPS[workload] + COMMON


def _bag(rng: random.Random, items):
    """Endless stream drawing every item once per shuffled round."""
    while True:
        items = list(items)
        rng.shuffle(items)
        yield from items


def _rotations(rng: random.Random, q: int) -> tuple[int, int]:
    while True:
        p1, p2 = rng.randint(1, q - 1), rng.randint(1, q - 1)
        if math.gcd(p1, p2, q) == 1:
            return p1, p2


def _isometric_image(rng: random.Random, q: int, rots: tuple[int, int]) -> tuple[int, int]:
    unit = rng.choice([l for l in range(1, q) if math.gcd(l, q) == 1])
    image = [(rng.choice((1, -1)) * unit * p) % q for p in rots]
    rng.shuffle(image)
    return tuple(image)


def query_stream(seed: int, count: int) -> list[list[str]]:
    """``count`` CLI queries made from ``seed``.

    Half of the queries repeat an earlier query's space (or pair) under
    the same command, as a user re-asking would; the rest are fresh.
    The command mix comes from shuffled rounds, and each command draws
    its orders, paddings, reuse decisions and pair kinds from shuffled
    rounds of its own.  So every prefix of the stream gives each command
    nearly the same spread of orders, the cost of the queries a run gets
    through varies little from seed to seed, and only the order and the
    rotation data differ.
    """
    rng = random.Random(seed)
    kinds = _bag(rng, MIX)
    commands = dict.fromkeys(MIX)  # ordered, so the stream does not depend on hashing
    orders = {k: _bag(rng, range(QMIN, QMAX + 1)) for k in commands}
    paddings = {k: _bag(rng, (0,) if k == "heat" else (0, 1)) for k in commands}
    reuses = {k: _bag(rng, (False, True)) for k in commands}
    images = {k: _bag(rng, (False, True)) for k in commands}
    history: dict[str, list] = {kind: [] for kind in commands}
    out = []
    while len(out) < count:
        kind = next(kinds)
        if next(reuses[kind]) and history[kind]:
            q, a, b, pad = rng.choice(history[kind])
        else:
            q, pad = next(orders[kind]), next(paddings[kind])
            a = _rotations(rng, q)
            b = None
            if kind in ("isospectral", "isometric"):
                b = _isometric_image(rng, q, a) if next(images[kind]) else _rotations(rng, q)
            history[kind].append((q, a, b, pad))
        argv = [kind, str(q), *map(str, a), "--padding", str(pad)]
        if kind == "spectrum":
            argv += ["--kmax", str(rng.randint(1, KMAX_MAX))]
        argv += ["--format", "json-lines"]
        if b is not None:
            argv += ["--", *map(str, b)]
        out.append(argv)
    return out
