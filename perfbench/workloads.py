"""Workload definitions: op pools and the seeded op list drawn from them.

A workload is a pool of op shapes: argv lists for ``fflab.cli.main`` without
``--seed``.  One round runs every shape of the pool once, in an order drawn
from the workload seed, each with a per-op ``--seed`` drawn from the same
generator.  A run repeats whole rounds until its ops have taken ``--seconds``
reference seconds, so every run sees the same mix of shapes and its throughput
does not depend on which shapes the seed happened to favour.

Sizes a 2-core, 8 GB machine must not run (measured on one) and why the
pools stop below them:

- ``kakeya sd --field 103`` peaks at 3.5 GB: the self-dot count builds an m x m
  int64 matrix with m = |F|^2 - 1 and ignores ``--budget``.  ``sd`` runs at
  F_31 to F_59 (about 400 MB at F_59), which still shows the defect in peak RSS.
- ``verify identities --suite parseval --fields 101^2`` peaks at 4.0 GB and
  takes 8 s: the two q x q DFT matrices built by ``grid._transform_matrices``.
  Parseval runs at 53^2 (about 340 MB) instead.
- ``kakeya slices --field 127^2`` is killed for lack of memory:
  ``besicovitch_2d`` materializes |F|^2 entries.  Slices stay at 11^2 and below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The per-op seed is the CLI default (0) for this share of ops, so that lower
# certificates, whose values depend on the seed, are checked against recorded
# references in every run; the other ops draw a fresh seed.
DEFAULT_SEED_SHARE = 0.25
SEED_RANGE = 10**6


def _estimate(field, dim, surface, p, q):
    return (
        f"restriction estimate --field {field} --dim {dim} --surface {surface} --p {p} --q {q}"
    )


def _witness(field, dim, surface, witness):
    return (
        f"restriction witness --field {field} --dim {dim} --surface {surface}"
        f" --p 2 --q 4 --witness {witness}"
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: tuple[str, ...]
    # Clear make_field's cache before every op, so each op builds its field
    # tables cold, as one CLI process per field would.
    cold_fields: bool = False
    # One cheap shape from the pool, for the smoke run.
    smoke: str = ""


# Each pool is built in cost tiers so that the run's statistics land on
# plateaus: with two rounds per run, the tail op (the 11th slowest) falls inside
# a tier of similar-cost heavy shapes and the median inside a tier of
# similar-cost middle shapes, whatever order the seed draws.

RESTRICTION = Workload(
    name="restriction",
    why=(
        "restriction estimate/witness and table figure1 over F_5-F_31 at n = 2, 3: most time in grid "
        "transforms, surface extension/direct/sum tables and the power loop; warm field cache"
    ),
    shapes=(
        # slowest: k = 2 table + power ascent + direct recheck; k = 3 table;
        # (2, 3), which is power ascent only
        _estimate(31, 3, "paraboloid", 2, 4),
        _estimate(19, 3, "paraboloid", 2, 6),
        _estimate(7, 3, "paraboloid", 2, 3),
        # heavy tier
        _estimate(19, 3, "cone", 2, 4),
        _estimate(19, 3, "paraboloid", 2, 4),
        _estimate(17, 3, "cone", 2, 4),
        _estimate(17, 3, "paraboloid", 2, 4),
        "table figure1 --fields 5,7,11,13,17,19",
        "table figure1 --fields 5,7,11,13",
        # middle tier
        _estimate(5, 3, "paraboloid", 2, 3),
        _estimate(13, 3, "cone", 2, 4),
        _estimate(13, 3, "paraboloid", 2, 4),
        _estimate(13, 3, "paraboloid", 2, 6),
        _estimate(11, 3, "cone", 2, 4),
        _estimate(31, 3, "moment", 2, 4),
        _estimate(7, 3, "cone", 2, 4),
        _estimate(29, 3, "moment", 2, 6),
        _witness(31, 3, "paraboloid", "dirac"),
        # light
        _estimate(11, 3, "paraboloid", 2, 6),
        _estimate(7, 3, "cone", 2, 6),
        _estimate(23, 3, "moment", 2, 6),
        _estimate(19, 3, "moment", 2, 4),
        _estimate(31, 2, "parabola", 2, 6),
        _estimate(23, 2, "parabola", 2, 4),
        _estimate(7, 2, "parabola", 2, 2),
        _witness(29, 3, "cone", "dual_cone_X"),
        _witness(7, 3, "cone", "dual_cone_X"),
        _witness(23, 3, "paraboloid", "constant"),
        _witness(13, 3, "paraboloid", "subspace"),
    ),
    smoke=_estimate(7, 2, "parabola", 2, 2),
)

KAKEYA = Workload(
    name="kakeya",
    why=(
        "kakeya maximal at n = 2, 3, 4 plus besicovitch, cordoba, slices and wolff-check: most time "
        "in kakeya_maximal and its per-line recheck, none in grid transforms or surfaces"
    ),
    shapes=(
        "kakeya maximal --field 13 --dim 3",
        "kakeya maximal --field 11 --dim 3",
        # heavy tier
        "kakeya maximal --field 47 --dim 2",
        "kakeya maximal --field 5 --dim 4",
        "kakeya besicovitch --field 199",
        "kakeya maximal --field 43 --dim 2",
        "kakeya maximal --field 37 --dim 2",
        "kakeya wolff-check --field 13 --family random --count 100",
        # middle tier
        "kakeya besicovitch --field 151",
        "kakeya cordoba --field 13 --dim 3 --trials 50",
        "kakeya maximal --field 31 --dim 2",
        "kakeya cordoba --field 11 --dim 3 --trials 50",
        "kakeya besicovitch --field 101",
        # light
        "kakeya cordoba --field 31 --dim 2 --trials 100",
        "kakeya cordoba --field 7 --dim 3 --trials 50",
        "kakeya wolff-check --field 7",
        "kakeya wolff-check --field 11 --family random --count 50",
        "kakeya wolff-check --field 5 --mode exhaustive",
        "kakeya slices --field 31",
        "kakeya slices --field 101",
    ),
    smoke="kakeya slices --field 31",
)

FIELDS = Workload(
    name="fields",
    why=(
        "every op builds its field cold (F_{p^2} up to 509^2) and the two unbudgeted dense "
        "allocations run at sizes that fit: field construction time and peak RSS show here"
    ),
    shapes=(
        "verify identities --suite parseval --fields 509^2",
        "kakeya besicovitch --field 13^2",
        # heavy tier
        "kakeya maximal --field 5^2 --dim 2",
        "kakeya besicovitch --field 11^2",
        "verify identities --suite parseval --fields 53^2",
        "verify identities --suite gauss --fields 61^2",
        "kakeya sd --field 59",
        "kakeya cordoba --field 3^2 --dim 3 --trials 50",
        # middle tier
        # exits 1 at this commit: the point-count bracket is fixed at 9^(5/2)
        "kakeya heisenberg --field 5^2",
        "verify identities --suite parseval --fields 47^2",
        "verify identities --suite gauss --fields 43^2",
        "verify identities --suite parseval --fields 43^2",
        "kakeya sd --field 47",
        "verify identities --suite gauss --fields 41^2",
        "kakeya sd --field 43",
        "verify identities --suite parseval --fields 41^2",
        "kakeya besicovitch --field 7^2",
        # light
        "verify identities --suite gauss --fields 31^2",
        "kakeya maximal --field 3^2 --dim 2",
        "verify identities --suite all",
        "verify identities --suite gauss --fields 23^2",
        "kakeya sd --field 31",
        "kakeya heisenberg --field 3^2",
        _estimate("3^2", 2, "parabola", 2, 4),
        "kakeya slices --field 11^2",
        "kakeya slices --field 7^2",
        "restriction region --dim 3 --surface-dim 2 --p 2 --q 4",
    ),
    cold_fields=True,
    smoke="kakeya heisenberg --field 3^2",
)

WORKLOADS = {w.name: w for w in (RESTRICTION, KAKEYA, FIELDS)}


@dataclass(frozen=True)
class Op:
    shape: str
    seed: int

    @property
    def argv(self) -> list[str]:
        return self.shape.split() + ["--seed", str(self.seed), "--format", "json"]


def draw_rounds(workload: Workload, seed: int, rounds: int, smoke: bool = False) -> list[list[Op]]:
    """The run's op list, round by round; the same seed gives the same list."""
    rng = random.Random(seed)
    shapes = [workload.smoke] if smoke else list(workload.shapes)
    out = []
    for _ in range(rounds):
        order = rng.sample(shapes, len(shapes))
        out.append([
            Op(s, 0 if rng.random() < DEFAULT_SEED_SHARE else rng.randrange(1, SEED_RANGE))
            for s in order
        ])
    return out
