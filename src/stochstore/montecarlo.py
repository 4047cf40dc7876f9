"""Seeded Monte Carlo: trajectory ensembles and frequency estimates.

This engine is the sampling oracle for the analytic (grid and closed
form) probability paths: it simulates scenarios trajectory by trajectory
and estimates each step triple as one flat ``SelfSufficiencyEstimate``:
the frequencies ``p_deficit``, ``p_overflow`` and ``p_self``, under the
analytic triple's names, and ``n``, whose ``halfwidth(p)`` is a frequency's
normal-approximation confidence halfwidth (3 standard errors).  It takes
nothing from the analytic routes' module (``balance``): it forms each
storage window itself, and only the CLI puts its estimates next to theirs.

Reproducibility contract: trajectory ``i`` of a run seeded with ``seed``
draws from ``numpy.random.default_rng((seed, i))``, consuming generation
then demand per step, in step order.  Results are therefore deterministic
for a fixed (scenario, n, seed) under any execution order.  The generator
states are computed here, a chunk of trajectories at a time, from numpy's
documented ``SeedSequence`` and ``PCG64`` seeding algorithms rather than by
building one ``Generator`` per trajectory; a test pins them to
``default_rng``.  ``estimate_steps`` gives the frequency estimates' stream.

How an estimate counts.  Each rule below keeps every count, and so every
output byte, equal to that of the whole sample compared with each window.

- Windows: a pair's distinct level ``s`` is counted once, in the window
  ``(lo, hi] = (s_min - s, s_max - s]``, and its repeats copy its counts.
  A balance ``b <= lo`` is a deficit, ``b > hi`` an overflow, a NaN
  neither.  A pair with no levels is left out of its draw set.
- Draw sets: pairs whose sides have the same two ``primitive`` names read
  the same draws, drawn and freed a block at a time (``None``, a
  Deterministic side, draws nothing).
- The block counter, ``_count``: up to ``SORT_ABOVE_LEVELS`` levels it
  compares the balances with each edge; past that it sorts them and reads
  every count by binary search, the non-NaN ones lying below
  ``searchsorted(b, inf)``.
- One drawn side (``_count_one_sided``): with the other fixed at ``c``,
  the balance is monotone in the drawn value, and an edge ``e`` splits it
  at ``c + e`` (a drawn generation) or ``c - e`` (a drawn demand), give or
  take ``RAW_MARGIN * (|c| + |e|)`` of rounding.  The drawn family's
  ``raw_floor`` and ``raw_ceil`` of the two ends bracket the raw draws that
  may land on either side.  Each block of raw draws is sorted once, a pair
  reads each edge's counts with one binary search of its bounds, and only
  the draws inside a bracket are transformed and compared.  A pair whose
  bounds fail their ``transform`` check, or whose family has none, counts
  each block whole; two Deterministic sides count one balance ``n`` times.
- Two drawn sides (``_count_draw_set``): every value is >= 0 and rounded
  subtraction is monotone, so ``fl(g - d)`` lies in ``[-d, g]``, a deficit
  at ``lo < 0`` needs ``d >= -lo`` and an overflow at ``hi > 0`` needs
  ``g > hi``.  A pair with at most ``SORT_ABOVE_LEVELS`` levels, none at
  ``s_min`` or ``s_max``, has a demand floor, ``raw_floor(-max(lo))``, and
  a generation floor, ``raw_floor(min(hi))``, each checked by one
  ``transform`` probe; a draw below both is neither event.  One compare of
  each block's raw draws with the draw set's lowest floor per side finds
  the candidates, whose raw draws gather across blocks in a quarter-block
  buffer per side; the pruned pairs count the buffer when the next block's
  candidates would not fit, and at the end.  Any other pair, and every pair on a block with more
  candidates than a buffer holds, counts the block whole.
- Reuse: a run of pairs with equal generations (``==``, which takes 0.0 for
  -0.0 and changes no value) transforms them once per block or buffer, and
  a run of equal quantities on one side at one floor is probed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import RAW_MARGIN, Deterministic, Distribution
from .scenario import Scenario
from .storage import StorageSpec, Trajectory, evolve

__all__ = [
    "QUANTILE_LEVELS",
    "SelfSufficiencyEstimate",
    "EnsembleStats",
    "simulate_ensemble",
    "estimate_steps",
]

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class SelfSufficiencyEstimate:
    """Frequency estimates of the deficit / overflow / self triple.

    The fields carry the analytic triple's names.  Each frequency is a
    count of one shared sample of ``n`` draws divided by ``n``, and the
    three counts partition ``n``.
    """

    p_deficit: float
    p_overflow: float
    p_self: float
    n: int

    def halfwidth(self, p: float) -> float:
        """The 3-standard-error halfwidth of a frequency ``p`` over ``n`` draws."""
        return 3.0 * math.sqrt(p * (1.0 - p) / self.n)


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-step aggregates over an ensemble of simulated trajectories.

    Arrays are indexed by step (0-based); ``s_quantiles[j, t]`` is the
    ``QUANTILE_LEVELS[j]`` quantile of the storage state after step ``t``.
    ``realization`` is trajectory 0, with its generation and demand.
    """

    s_mean: np.ndarray
    s_quantiles: np.ndarray
    b_mean: np.ndarray
    spill_freq: np.ndarray
    deficit_freq: np.ndarray
    realization: Trajectory


# Trajectories drawn and evolved together by ``simulate_ensemble``.  Its
# working arrays are a few (horizon, ENSEMBLE_CHUNK) blocks next to the
# (n, horizon) matrix of states.
ENSEMBLE_CHUNK = 256

# numpy's SeedSequence (random/bit_generator.pyx: a pool of 4 uint32 words)
# and PCG64 (random/src/pcg64: 128-bit LCG) seeding constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1


def _draw_plan(scenario: Scenario):
    """How a chunk of trajectories takes its draws and turns them into values.

    Returns ``(runs, fixed, order, groups, gen_rows, dem_rows)`` over the
    quantities generation then demand, step by step.  A chunk's block holds
    one row per trajectory: the drawn quantities' draws in contract order,
    then the ``fixed`` Deterministic values.  A run ``(primitive, start,
    stop)`` fills columns ``start:stop`` with one call of that ``Generator``
    method: one run per stretch of consecutive drawn quantities sharing a
    primitive (an Empirical and a Weibull both draw uniforms).
    ``block.T[order]`` puts equal drawn quantities in adjacent rows, then the
    fixed values, and each ``(q, start, stop)`` of ``groups`` is transformed
    in one call; ``gen_rows``/``dem_rows`` give each step's quantities' rows.
    """
    quantities = [q for spec in scenario.steps for q in (spec.generation, spec.demand)]
    runs, members, fixed = [], {}, {}
    for k, q in enumerate(quantities):
        if q.primitive is None:
            fixed[k] = q.value
            continue
        column = k - len(fixed)
        if runs and runs[-1][0] == q.primitive:
            runs[-1][2] += 1
        else:
            runs.append([q.primitive, column, column + 1])
        # Equal quantities share one transform call (== takes a -0.0
        # parameter for 0.0, which changes no transform's value).
        members.setdefault(q, []).append((k, column))
    order, groups, rows = [], [], [0] * len(quantities)
    for q, ks in members.items():
        groups.append((q, len(order), len(order) + len(ks)))
        for k, column in ks:
            rows[k] = len(order)
            order.append(column)
    for k in fixed:  # the fixed columns follow the drawn ones, in order
        rows[k] = len(order)
        order.append(len(order))
    order = np.array(order, dtype=np.intp)
    return runs, list(fixed.values()), order, groups, rows[0::2], rows[1::2]


def _words(value: int) -> list[int]:
    """The uint32 words ``SeedSequence`` reads from an int, low word first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed and trajectory index must be >= 0, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.cache
def _hash_chain(hash_const: int, mult: int, sizes: tuple[int, ...]):
    """The xor and multiply constants of a hashmix chain, in blocks of ``sizes`` rows.

    ``SeedSequence`` hashes its ``k``-th word with the ``k``-th constant of
    the sequence from ``hash_const``, whatever the data, so a chain depends
    only on the entropy length.
    """
    xors, mults = [], []
    for _ in range(sum(sizes)):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        mults.append(hash_const)
    chain = np.array([xors, mults], dtype=np.uint32)[:, :, None]
    chain.setflags(write=False)
    return tuple(np.split(chain, np.cumsum(sizes)[:-1], axis=1))


def _hashmix(rows: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix of each uint32 row with its ``chain`` constants.

    uint32 array arithmetic wraps modulo 2**32 as the C code's does.
    """
    rows = rows ^ chain[0]
    rows *= chain[1]
    rows ^= rows >> 16
    return rows


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result ^= result >> 16
    return result


def _pcg64_states(seed: int, indices) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng((seed, i))`` for each ``i`` in ``indices``.

    The entropy of ``(seed, i)`` is ``_words(seed) + _words(i)``, one column
    of ``entropy`` per index.  A short column is padded with zeros, which is
    what the pool fill hashes past an entropy's end; only the words past
    the pool, which are mixed in one at a time, are masked to the columns
    that have them.  Callers pass one index or a range from 0, so checking
    the largest index refuses every negative one.
    """
    seed_words = _words(seed)
    indices = [int(i) for i in indices]
    width = len(_words(max(indices)))
    entropy = np.zeros((max(_POOL_SIZE, len(seed_words) + width), len(indices)), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words) : len(seed_words) + width] = [
        [i >> 32 * k & _MASK32 for i in indices] for k in range(width)
    ]

    # The pool fill, each pool word mixed into the other three, then each
    # word past the pool hashed once per pool word.
    past_pool = len(entropy) - _POOL_SIZE
    sizes = (_POOL_SIZE,) + (_POOL_SIZE - 1,) * _POOL_SIZE + (_POOL_SIZE,) * past_pool
    chain = iter(_hash_chain(_INIT_A, _MULT_A, sizes))
    pool = _hashmix(entropy[:_POOL_SIZE], next(chain))
    for src in range(_POOL_SIZE):
        # Row src is read, and only the other rows are written.
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], next(chain)))
    if past_pool:
        lengths = len(seed_words) + np.array([len(_words(i)) for i in indices])
        for src in range(_POOL_SIZE, len(entropy)):
            pool = np.where(lengths > src, _mix(pool, _hashmix(entropy[src], next(chain))), pool)

    # generate_state(4, uint64): eight words hashed from the pool, paired
    # low word first into the uint64s (s_hi, s_lo, seq_hi, seq_lo) that
    # seed the 128-bit LCG.
    pool = np.concatenate([pool, pool])
    words = _hashmix(pool, *_hash_chain(_INIT_B, _MULT_B, (2 * _POOL_SIZE,))).astype(np.uint64)
    s_hi, s_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << 32).tolist()
    # pcg_setseq_128_srandom_r: two LCG steps from state 0, with the initial
    # state added between them.
    incs = [(c << 65 | d << 1 | 1) & _MASK128 for c, d in zip(seq_hi, seq_lo)]
    return [
        (((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc)
        for a, b, inc in zip(s_hi, s_lo, incs)
    ]


def _draw(plan, seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Generation and demand of trajectories ``indices``, as ``(horizon, m)`` arrays.

    One ``Generator`` serves every trajectory: its bit generator is set to
    the state ``default_rng((seed, i))`` starts from before trajectory
    ``i``'s runs of draws, which land in its row of the block.
    """
    runs, fixed, order, groups, gen_rows, dem_rows = plan
    states = _pcg64_states(seed, indices)
    block = np.empty((len(states), len(order)))
    block[:, len(order) - len(fixed) :] = fixed
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    draws = [(getattr(rng, primitive), start, stop) for primitive, start, stop in runs]
    for row, (pcg["state"], pcg["inc"]) in zip(block, states):
        bit_generator.state = state
        for draw, start, stop in draws:
            draw(out=row[start:stop])
    values = block.T[order]
    for q, start, stop in groups:
        rows = values[start:stop]
        q.transform(rows, rows)
    return values[gen_rows], values[dem_rows]


def simulate_trajectory(scenario: Scenario, seed: int, index: int = 0) -> Trajectory:
    """No library caller uses this; perfbench/spans.py wraps it by name."""
    g, d = _draw(_draw_plan(scenario), seed, [index])
    g, d = g[:, 0], d[:, 0]
    return replace(evolve(scenario.storage, g - d), generation=g, demand=d)


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    # A total that overflows is left as inf or nan for the caller to see.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.reduce(rows, axis=0)


def simulate_ensemble(scenario: Scenario, n: int, seed: int) -> EnsembleStats:
    """Aggregate ``n`` independent trajectories of the scenario.

    Trajectories are drawn and evolved ``ENSEMBLE_CHUNK`` at a time.
    Trajectory ``i`` draws from ``default_rng((seed, i))``, generation then
    demand per step in step order, and is evolved from ``s_init``; every
    statistic equals numpy's mean or quantile over the ``(n, horizon)``
    matrix of all trajectories bit for bit.  Only the matrix of states is
    held; ``b_mean`` is a running total, which is ``inf`` or ``nan`` where
    that total overflows a float.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n}")
    horizon = scenario.horizon
    plan = _draw_plan(scenario)
    states = np.empty((n, horizon))
    # numpy sums the columns of a C-ordered matrix row by row, which the
    # running total over C-ordered [total; chunk] blocks repeats.  (An
    # F-ordered block would be summed pairwise.)  A one-column matrix it
    # sums pairwise over all n rows, so a one-step scenario keeps its n
    # balances and sums them once.
    balances = np.empty((n, 1)) if horizon == 1 else None
    b_total = np.zeros(horizon)
    spill_counts = np.zeros(horizon)
    deficit_counts = np.zeros(horizon)
    realization = None
    for start in range(0, n, ENSEMBLE_CHUNK):
        stop = min(start + ENSEMBLE_CHUNK, n)
        g, d = _draw(plan, seed, range(start, stop))
        traj = evolve(scenario.storage, g - d)
        if realization is None:
            realization = Trajectory(
                s_init=traj.s_init,
                balance=traj.balance[:, 0],
                storage=traj.storage[:, 0],
                spill=traj.spill[:, 0],
                deficit=traj.deficit[:, 0],
                generation=g[:, 0],
                demand=d[:, 0],
            )
        states[start:stop] = traj.storage.T
        if balances is not None:
            balances[start:stop] = traj.balance.T
        else:
            rows = np.empty((stop - start + 1, horizon))
            rows[0] = b_total
            rows[1:] = traj.balance.T
            b_total = _sum_rows(rows)
        spill_counts += np.count_nonzero(traj.spill > 0.0, axis=1)
        deficit_counts += np.count_nonzero(traj.deficit > 0.0, axis=1)
    if balances is not None:
        b_total = _sum_rows(balances)
    s_mean = states.mean(axis=0)
    return EnsembleStats(
        s_mean=s_mean,
        # Partitions the states in place rather than a copy of them.
        s_quantiles=np.quantile(states, QUANTILE_LEVELS, axis=0, overwrite_input=True),
        b_mean=b_total / n,
        spill_freq=spill_counts / n,
        deficit_freq=deficit_counts / n,
        realization=realization,
    )


def estimate_self_sufficiency(
    gen: Distribution,
    dem: Distribution,
    storage: StorageSpec,
    s_prev: float,
    n: int,
    seed: int,
) -> SelfSufficiencyEstimate:
    """No library caller uses this; perfbench/spans.py wraps it by name."""
    return estimate_steps([(gen, dem)], storage, [(s_prev,)], n, seed)[0][0]


# Balance values formed and counted at a time by ``estimate_steps``.
ESTIMATE_BLOCK = 16384

# ``_count`` sorts a balance block counted at more levels than this and reads
# all its counts by binary search.  At ESTIMATE_BLOCK values the sort and the
# searches cost about as much as 8 levels' two compare-and-count passes.
SORT_ABOVE_LEVELS = 8


def _count(b: np.ndarray, lo: np.ndarray, hi: np.ndarray, mask, deficit, overflow) -> None:
    """Add the counts of ``b <= lo[j]`` to ``deficit`` and of ``b > hi[j]`` to ``overflow``."""
    if len(lo) > SORT_ABOVE_LEVELS:
        b.sort()  # NaNs sort last, past searchsorted(b, inf)
        deficit += np.searchsorted(b, lo, "right")
        overflow += np.searchsorted(b, np.inf, "right") - np.searchsorted(b, hi, "right")
        return
    for j in range(len(lo)):
        deficit[j] += np.count_nonzero(np.less_equal(b, lo[j], out=mask))
        overflow[j] += np.count_nonzero(np.greater(b, hi[j], out=mask))


def _raw_floor(dist: Distribution, v: float, last: list):
    """``dist``'s raw floor at ``v > 0`` if its one ``transform`` probe holds, else ``None``.

    The raw draw just below the floor must give a value below ``v``; a
    family with no floor there (``-inf``) has nothing to prune.  ``last``
    holds the side's last ``[dist, v, floor]``, so a run of equal
    quantities at one ``v`` is probed once.
    """
    if last[1] == v and last[0] == dist:
        return last[2]
    floor = dist.raw_floor(v)
    below = np.full(1, np.nextafter(floor, -np.inf))
    with np.errstate(all="ignore"):  # a probe past the float range fails the check
        if not (floor > -np.inf and dist.transform(below, below)[0] < v):
            floor = None
    last[:] = dist, v, floor
    return floor


def _raw_floors(gen: Distribution, dem: Distribution, lo: np.ndarray, hi: np.ndarray, last):
    """The raw ``(demand, generation)`` floors of a two-sided pair, or ``None`` to count it whole.

    ``last`` holds each side's last ``_raw_floor`` lookup, generation then demand.
    """
    v_d, v_g = -lo.max(), hi.min()
    if len(lo) > SORT_ABOVE_LEVELS or not (v_d > 0.0 and v_g > 0.0):
        return None
    d_floor = _raw_floor(dem, v_d, last[1])
    g_floor = None if d_floor is None else _raw_floor(gen, v_g, last[0])
    return None if g_floor is None else (d_floor, g_floor)


def _candidates(floors, raw_g, raw_d, mask, room: int):
    """Indices of the block's draws that can reach a pruned pair's edge.

    ``floors`` are the lowest raw demand and generation floors among the
    draw set's pruned pairs; a candidate's raw demand or raw generation is
    at or above its side's floor.  ``None`` once there are more than
    ``room``, the candidate buffers' size, and the pruned pairs count the
    whole block: so the indices always fit an emptied buffer.
    """
    d_floor, g_floor = floors
    np.greater_equal(raw_d, d_floor, out=mask)
    mask |= raw_g >= g_floor
    if np.count_nonzero(mask) > room:
        return None
    return np.flatnonzero(mask)


def _count_pairs(members, raw_g, raw_d, g_out, b_out, mask) -> None:
    """Count the balances of the raw draws ``raw_g``, ``raw_d`` for each member."""
    previous = None
    for gen, dem, lo, hi, deficit, overflow, _ in members:
        # An equal generation maps the raw draws to the same values (0.0
        # for a -0.0 changes no count), so a run of them is transformed once.
        if gen != previous:
            g = gen.transform(raw_g, g_out)
        previous = gen
        b = np.subtract(g, dem.transform(raw_d, b_out), out=b_out)
        _count(b, lo, hi, mask, deficit, overflow)


def _count_draw_set(primitives, members, n: int, seed: int) -> None:
    """Count a two-sided draw set for each ``(gen, dem, lo, hi, deficit, overflow)``.

    ``primitives`` names the generation's and the demand's ``Generator``
    method.  Every array and view is freed on return, before the next draw
    set is drawn.
    """
    last = [None] * 3, [None] * 3
    members = [(*member, _raw_floors(*member[:4], last)) for member in members]
    pruned = [member for member in members if member[-1] is not None]
    whole = [member for member in members if member[-1] is None]
    # The lowest demand floor and the lowest generation floor.
    floors = tuple(map(min, zip(*(m[-1] for m in pruned)))) if pruned else None
    rng = np.random.default_rng(seed)
    draw_g, draw_d = (getattr(rng, p) for p in primitives)
    size = min(n, ESTIMATE_BLOCK)
    g_block, b_block, mask_block = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    room = size // 4
    buffers = (np.empty(room), np.empty(room)) if pruned else None
    fill = 0

    def count_buffers():
        views = (buf[:fill] for buf in buffers)
        _count_pairs(pruned, *views, g_block[:fill], b_block[:fill], mask_block[:fill])

    for start in range(0, n, ESTIMATE_BLOCK):
        size = min(ESTIMATE_BLOCK, n - start)
        # A tuple is evaluated left to right: the generation draws first.
        raw_g, raw_d = draw_g(size), draw_d(size)
        g, b, mask = g_block[:size], b_block[:size], mask_block[:size]
        idx = None if floors is None else _candidates(floors, raw_g, raw_d, mask, room)
        _count_pairs(members if idx is None else whole, raw_g, raw_d, g, b, mask)
        if idx is not None:
            if fill + len(idx) > room:
                count_buffers()
                fill = 0
            stop = fill + len(idx)
            raw_g.take(idx, out=buffers[0][fill:stop])
            raw_d.take(idx, out=buffers[1][fill:stop])
            fill = stop
        raw_g = raw_d = idx = None  # freed before the next block is drawn
    if fill:
        count_buffers()


def _one_sided_balance(gen: Distribution, dem: Distribution, raw: np.ndarray, out: np.ndarray):
    """The balances of a pair with one Deterministic side at its drawn side's ``raw`` draws."""
    if gen.primitive is None:
        return np.subtract(gen.value, dem.transform(raw, out), out=out)
    return np.subtract(gen.transform(raw, out), dem.value, out=out)


def _raw_bounds(gen: Distribution, dem: Distribution, lo: np.ndarray, hi: np.ndarray):
    """Each window edge's raw bracket for a one-sided pair, or ``None`` to count it whole.

    Returns ``(edges, bounds)``: the edges ``lo`` then ``hi``, and their
    raw floors then their raw ceilings.  An edge ``e`` splits the drawn
    values at ``v = c + e`` (a drawn generation: ``b <= e`` below) or
    ``c - e`` (a drawn demand: ``b <= e`` above), and a value more than
    ``RAW_MARGIN * (|c| + |e|)`` from ``v`` is surely on its side: a draw
    below the floor or at or above the ceiling needs no transform.  Values
    are >= 0, so a floor at ``v <= 0`` is ``-inf`` (no draw is below it),
    and so is a ceiling at ``v < 0`` (every draw is above it).  Each finite
    bound is checked once through ``transform``: the raw draw just below
    the floor, and the ceiling, must give balances on their sides of the
    edge.  A failed check, or an edge whose bracket holds every raw draw (a
    family with no bounds), counts the pair whole.
    """
    drawn_gen = dem.primitive is None
    drawn, c = (gen, dem.value) if drawn_gen else (dem, gen.value)
    edges = np.concatenate([lo, hi])
    with np.errstate(over="ignore", invalid="ignore"):  # a split past the float range has no bounds
        v = c + edges if drawn_gen else c - edges
        margin = RAW_MARGIN * (abs(c) + np.abs(edges))
        v_floor, v_ceil = v - margin, v + margin
    has_floor, has_ceil = v_floor > 0.0, v_ceil >= 0.0
    floors, ceils = np.full(len(edges), -np.inf), np.where(v_ceil < 0.0, -np.inf, np.inf)
    floors[has_floor] = drawn.raw_floor(v_floor[has_floor])
    ceils[has_ceil] = drawn.raw_ceil(v_ceil[has_ceil])
    if np.any((floors == -np.inf) & (ceils == np.inf) | (floors > ceils)):
        return None
    has_floor, has_ceil = floors > -np.inf, has_ceil & (ceils < np.inf)
    below_floors = np.nextafter(floors[has_floor], -np.inf)
    probes = np.concatenate([below_floors, ceils[has_ceil]])
    with np.errstate(all="ignore"):  # a probe past the float range fails the check
        b = _one_sided_balance(gen, dem, probes, probes)
    at = np.concatenate([edges[has_floor], edges[has_ceil]])
    k = len(below_floors)
    # A drawn generation's low draws give low balances, a drawn demand's high ones.
    low, high = (b <= at, b > at) if drawn_gen else (b > at, b <= at)
    if not (low[:k].all() and high[k:].all()):
        return None
    return edges, np.concatenate([floors, ceils])


def _count_one_sided(primitive, members, n: int, seed: int) -> None:
    """Count a draw set with at most one drawn side for each of its ``members``.

    Each member is ``(gen, dem, lo, hi, deficit, overflow)``.  ``primitive``
    names the drawn side's ``Generator`` method, ``None`` when both sides
    are Deterministic.
    """
    if primitive is None:
        for gen, dem, lo, hi, deficit, overflow in members:
            b = np.subtract(gen.value, dem.value)
            deficit += n * (b <= lo)
            overflow += n * (b > hi)
        return
    bracketed, whole = [], []
    for member in members:
        bounds = _raw_bounds(*member[:4])
        if bounds is None:
            whole.append(member)
        else:
            edges, raw_bounds = bounds
            # Draws below each bound, and the bracketed balances at or below each edge.
            bracketed.append((member, edges, raw_bounds, np.zeros(len(raw_bounds), np.int64),
                              np.zeros(len(edges), np.int64)))
    draw = getattr(np.random.default_rng(seed), primitive)
    for start in range(0, n, ESTIMATE_BLOCK):
        raw = draw(min(ESTIMATE_BLOCK, n - start))
        raw.sort()
        for (gen, dem, *_), edges, raw_bounds, below, inside in bracketed:
            idx = np.searchsorted(raw, raw_bounds)
            below += idx
            e = len(edges)
            for j in np.flatnonzero(idx[e:] > idx[:e]):
                x = raw[idx[j] : idx[e + j]]
                b = _one_sided_balance(gen, dem, x, np.empty(len(x)))
                inside[j] += np.count_nonzero(b <= edges[j])
        for gen, dem, lo, hi, deficit, overflow in whole:
            b = _one_sided_balance(gen, dem, raw, np.empty(len(raw)))
            _count(b, lo, hi, np.empty(len(raw), dtype=bool), deficit, overflow)
        raw = None  # freed before the next block is drawn
    for (gen, dem, lo, _, deficit, overflow), edges, raw_bounds, below, inside in bracketed:
        e = len(edges)
        # The balances at or below each edge: a drawn generation's draws below
        # the floor, a drawn demand's at or above the ceiling.
        at_most = inside + (below[:e] if dem.primitive is None else n - below[e:])
        deficit += at_most[: len(lo)]
        overflow += n - at_most[len(lo) :]


def estimate_steps(pairs, storage: StorageSpec, levels, n: int, seed: int):
    """Estimate the triple of each ``(gen, dem)`` pair at each of its levels.

    ``levels[k]`` lists the levels of ``pairs[k]``, each in ``storage``'s
    window.  The result holds one tuple per pair of one
    ``SelfSufficiencyEstimate`` per level, whose frequencies are counts of
    ``n`` balance draws divided by ``n``, counted as the module docstring
    states.  The draws come from ``default_rng(seed)``, each block of
    ``ESTIMATE_BLOCK`` values drawing its generation, then its demand; a
    side that draws alone reads the stream as one whole draw would, and so
    does a draw set of ``n <= ESTIMATE_BLOCK``.  They depend only on
    ``(seed, n)`` and each side's ``primitive``.  Whatever ``n``, at most a
    block of raw draws per side, a generation and a balance block, a bool
    mask and the candidate buffers (a quarter block per side) are held.
    """
    pairs = [tuple(pair) for pair in pairs]
    levels = [[storage.check_level(s) for s in lv] for lv in levels]
    if len(levels) != len(pairs):
        raise ValueError(f"expected {len(pairs)} level lists, got {len(levels)}")
    n = int(n)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    counts = []
    groups: dict = {}
    for (gen, dem), lv in zip(pairs, levels):
        distinct, repeats = np.unique(lv, return_inverse=True)
        lo, hi = storage.s_min - distinct, storage.s_max - distinct
        deficit, overflow = np.zeros(len(lo), dtype=np.int64), np.zeros(len(lo), dtype=np.int64)
        if len(lo):  # a pair with no levels draws and counts nothing
            member = (gen, dem, lo, hi, deficit, overflow)
            groups.setdefault((gen.primitive, dem.primitive), []).append(member)
        counts.append((deficit, overflow, repeats))
    for (primitive_g, primitive_d), members in groups.items():
        if primitive_g is None or primitive_d is None:
            _count_one_sided(primitive_g or primitive_d, members, n, seed)
        else:
            _count_draw_set((primitive_g, primitive_d), members, n, seed)
    return tuple(
        tuple(_estimate(d, o, n) for d, o in zip(ds[r].tolist(), os[r].tolist()))
        for ds, os, r in counts
    )


def _estimate(n_deficit: int, n_overflow: int, n: int) -> SelfSufficiencyEstimate:
    n_self = n - n_deficit - n_overflow
    return SelfSufficiencyEstimate(n_deficit / n, n_overflow / n, n_self / n, n)


def sweep_battery_levels(
    gen_value: float,
    dem: Distribution,
    storage: StorageSpec,
    levels,
    n: int,
    seed: int,
) -> tuple[SelfSufficiencyEstimate, ...]:
    """Only ``cli``'s sweep calls this; perfbench/spans.py wraps it by name."""
    levels = [float(s) for s in levels]
    if not levels:
        raise ValueError("levels must be a nonempty sequence")
    (estimates,) = estimate_steps([(Deterministic(gen_value), dem)], storage, [levels], n, seed)
    return estimates
