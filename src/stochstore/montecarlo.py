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
``default_rng``.  A frequency estimate draws generation then demand from
``default_rng(seed)``.  Every estimate is made by ``estimate_steps``, which
counts one draw set at all the levels and for all the pairs that share it:
a sweep draws its demand once for every level, and a generation that
recurs from step to step is transformed once per block of draws.  The side
drawn last is drawn a block at a time, so a draw set holds at most one
n-length array: the generation's draws, when a demand draws after them.
The transforms read the raw draws and write a block of values; a pair
counted at many levels (a sweep's 51) sorts each block once and reads
every level's counts by binary search, and any other pair compares the
block with each level's window edges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Deterministic, Distribution
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


def _raw_draw(q: Distribution):
    """``draw(rng, size)`` giving ``q``'s raw draws, or ``None`` if it draws nothing.

    ``None`` for a Deterministic quantity, the ``Generator`` method of its
    ``primitive`` (``transform`` makes the values), else its ``sample_n``
    (an Empirical draw is its value).  Two quantities with equal draw
    callables take the same raw draws from the same generator state.
    """
    if isinstance(q, Deterministic):
        return None
    if q.primitive is not None:
        return getattr(np.random.Generator, q.primitive)
    return q.sample_n


def _draw_plan(scenario: Scenario):
    """How a chunk of trajectories takes its draws and turns them into values.

    Returns ``(runs, fixed, order, groups, gen_rows, dem_rows)`` over the
    quantities generation then demand, step by step.  A chunk's block holds
    one row per trajectory: the ``fixed`` Deterministic values, then the
    other quantities' draws in contract order.  A run ``(draw, start, stop,
    primitive)`` fills columns ``start:stop`` with one ``draw`` call: one run
    per stretch of consecutive quantities sharing a primitive, one per
    Empirical draw.  ``block.T[order]`` puts equal quantities in adjacent
    rows, and each ``(q, start, stop)`` of ``groups`` is transformed in one
    call; ``gen_rows``/``dem_rows`` give each step's quantities' rows.
    """
    quantities = [q for spec in scenario.steps for q in (spec.generation, spec.demand)]
    fixed = [q.value for q in quantities if isinstance(q, Deterministic)]
    runs, column, members = [], [], {}
    n_fixed, n_drawn, last = 0, len(fixed), None
    for k, q in enumerate(quantities):
        # Equal quantities that transform draws share one transform call (==
        # takes a -0.0 parameter for 0.0, which changes no transform's value).
        members.setdefault(k if q.primitive is None else q, []).append(k)
        if isinstance(q, Deterministic):
            column.append(n_fixed)
            n_fixed += 1
            continue
        column.append(n_drawn)
        if q.primitive is not None and q.primitive == last:
            runs[-1][2] += 1
        else:
            runs.append([_raw_draw(q), n_drawn, n_drawn + 1, q.primitive is not None])
        n_drawn += 1
        last = q.primitive
    order, groups, rows = [], [], [0] * len(quantities)
    for ks in members.values():
        if quantities[ks[0]].primitive is not None:
            groups.append((quantities[ks[0]], len(order), len(order) + len(ks)))
        for k in ks:
            rows[k] = len(order)
            order.append(column[k])
    return runs, fixed, np.array(order, dtype=np.intp), groups, rows[0::2], rows[1::2]


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
    block[:, : len(fixed)] = fixed
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (pcg["state"], pcg["inc"]) in zip(block, states):
        bit_generator.state = state
        for draw, start, stop, primitive in runs:
            if primitive:
                draw(rng, out=row[start:stop])
            else:
                row[start:stop] = draw(rng, stop - start)
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


def _block_values(q: Distribution, raw, out: np.ndarray):
    """``q``'s values for the block of draws ``raw``, leaving ``raw`` as is.

    A Deterministic quantity (``raw`` is ``None``) gives its value as a
    scalar, a quantity without a ``transform`` its draws themselves, and any
    other the transformed draws, written into ``out``.
    """
    if raw is None:
        return q.value
    if q.primitive is None:
        return raw
    return q.transform(raw, out)


# Balance values formed and counted at a time by ``estimate_steps``.
ESTIMATE_BLOCK = 16384

# A pair with more levels than this sorts each balance block once and reads
# all its counts by binary search.  At ESTIMATE_BLOCK values the sort and the
# searches cost about as much as 8 levels' two compare-and-count passes.
SORT_ABOVE_LEVELS = 8


def _count(b: np.ndarray, lo: np.ndarray, hi: np.ndarray, mask, deficit, overflow) -> None:
    """Add the counts of ``b <= lo[j]`` to ``deficit`` and of ``b > hi[j]`` to ``overflow``.

    ``hi`` ends with ``inf``, one past the levels; a NaN balance is in
    neither count.  A sorted ``b`` (many levels) holds ``searchsorted(b,
    inf)`` values that are not NaN, of which those above ``hi[j]`` overflow.
    """
    if len(lo) > SORT_ABOVE_LEVELS:
        b.sort()
        deficit += np.searchsorted(b, lo, "right")
        at_most = np.searchsorted(b, hi, "right")
        overflow += at_most[-1] - at_most[:-1]
        return
    for j in range(len(lo)):
        deficit[j] += np.count_nonzero(np.less_equal(b, lo[j], out=mask))
        overflow[j] += np.count_nonzero(np.greater(b, hi[j], out=mask))


def _draw_block(draw, rng, size: int):
    return None if draw is None else draw(rng, size)


def _count_block(members, raw_g, raw_d, g_out, b_out, mask) -> None:
    """Count the balances of one block of raw draws for each member."""
    previous = None
    for gen, dem, lo, hi, deficit, overflow in members:
        # An equal generation maps the group's raw draws to the same values
        # (0.0 for a -0.0 changes no count).
        if previous is None or gen != previous:
            g = _block_values(gen, raw_g, g_out)
        previous = gen
        d = _block_values(dem, raw_d, b_out)
        b = np.subtract(g, d, out=b_out)
        _count(b, lo, hi, mask, deficit, overflow)


def _count_draw_set(draw_g, draw_d, members, n: int, seed: int) -> None:
    """Count one draw set's balances for each ``(gen, dem, lo, hi, deficit, overflow)``.

    The side drawn last, the demand or else the generation, is drawn one
    block at a time just before the block is counted, and that block's
    draws are freed before the next are drawn; a generation followed by a
    drawn demand is drawn whole first, as the contract orders it.  Every
    array and view is freed on return, before the next draw set is drawn.
    """
    rng = np.random.default_rng(seed)
    raw_g = None if draw_g is None or draw_d is None else draw_g(rng, n)
    size = min(n, ESTIMATE_BLOCK)
    g_block, b_block, mask_block = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for start in range(0, n, ESTIMATE_BLOCK):
        stop = min(start + ESTIMATE_BLOCK, n)
        size = stop - start
        # At most one side draws here, so the stream keeps its order.
        _count_block(
            members,
            raw_g[start:stop] if raw_g is not None else _draw_block(draw_g, rng, size),
            _draw_block(draw_d, rng, size),
            g_block[:size],
            b_block[:size],
            mask_block[:size],
        )


def estimate_steps(pairs, storage: StorageSpec, levels, n: int, seed: int):
    """Estimate the triple of each ``(gen, dem)`` pair at each of its levels.

    ``levels[k]`` lists the levels of ``pairs[k]``; the result holds one
    tuple per pair of one ``SelfSufficiencyEstimate`` per level, whose
    frequencies are counts divided by ``n``.  Each estimate counts ``n``
    draws of the balance, generation drawn before demand from
    ``default_rng(seed)``, so its raw draws depend only on ``(seed, n)`` and
    on each side's ``_raw_draw``: pairs with equal draw callables share one
    sampling pass, and each pair's balance is counted at all of its levels.
    The draw set is walked ``ESTIMATE_BLOCK`` values at a time, pair by
    pair.  A transform reads the raw draws and writes the block; a pair
    whose generation equals the previous pair's reuses the generation values
    already in the block.  A pair with more than ``SORT_ABOVE_LEVELS`` levels
    sorts its balance block and reads every level's counts by binary search;
    any other compares the block against each level's window edges.  The
    side drawn last (the demand, or a generation against a Deterministic
    demand) is drawn one block at a time, which leaves the same values and
    generator state as one whole draw.  One draw set's whole generation
    draw (at most n values, and only when a demand draws after it), a block
    of raw draws, one of generation, one of balance and one bool mask are
    all the arrays held.
    """
    pairs = [tuple(pair) for pair in pairs]
    levels = [[storage.check_level(s) for s in lv] for lv in levels]
    if len(levels) != len(pairs):
        raise ValueError(f"expected {len(pairs)} level lists, got {len(levels)}")
    n = int(n)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    deficits = [np.zeros(len(lv), dtype=np.int64) for lv in levels]
    overflows = [np.zeros(len(lv), dtype=np.int64) for lv in levels]
    groups: dict = {}
    for (gen, dem), lv, deficit, overflow in zip(pairs, levels, deficits, overflows):
        # The window (s_min - s, s_max - s] seen from each level s.
        lo = np.array([storage.s_min - s for s in lv])
        hi = np.array([storage.s_max - s for s in lv] + [np.inf])
        member = (gen, dem, lo, hi, deficit, overflow)
        groups.setdefault((_raw_draw(gen), _raw_draw(dem)), []).append(member)
    for (draw_g, draw_d), members in groups.items():
        _count_draw_set(draw_g, draw_d, members, n, seed)
    return tuple(
        tuple(_estimate(d, o, n) for d, o in zip(ds.tolist(), os.tolist()))
        for ds, os in zip(deficits, overflows)
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
