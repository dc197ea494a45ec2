"""Continuous-time event-driven simulation of the CSMA-SIC protocol.

Every backlogged link counts down an exponential backoff timer that is
suspended whenever the transmission would be infeasible and resumed (with
its remaining time preserved) once it becomes feasible again.  Control
signaling is instantaneous.  A link may start when the active set plus it
is independent: the candidate's receiver and each ongoing receiver in range
of the candidate's transmitter judge their own decoding (``localstate``'s
table check), and a refusal or a busy endpoint is a veto.  A receiver that
does not hear the candidate sees no change, so this is independence in
every range regime, and the chain is the product-form chain of Boorstyn et
al., "Throughput analysis in multihop CSMA packet radio networks" (IEEE
Trans. Commun., 1987), which hidden terminals break if the transmitter
judges only the links it hears.  Sets are judged by
``setspace.independence_oracle``, which compiles ``is_independent`` once
per topology into bitmask lookups and the same decode arithmetic.  The
verdicts for one active set are cached as a bitmask, its frontier.  The
family is downward closed, so a new active set's frontier is bounded by
the previous one and by per-link pair rows (the frontier of each single
link): when link i starts, it lies within the previous frontier and i's
row; when link i ends, it holds the previous frontier plus i and lies
within the rows of the links still active.  Only the links between the
two bounds are judged.  The caches are emptied when one reaches
``_CACHE_CAP`` entries.  Every start and end of a transmission suspends or
resumes only the links whose verdict it flipped.  The event
queue is one due time per link; the earliest goes next, the lowest link id
among equal ones.  The run is deterministic given the seed, with one random
stream per link, so the order of simultaneous events changes no draw.
Each link draws its backoffs and holding times from a buffer of standard
exponentials refilled from its own stream, scaled by 1/lambda or 1/mu; the
values are bit-identical to scalar ``Generator.exponential`` draws.
The event step is one loop in ``Simulator.advance`` on local plain Python
floats and ints: it credits the elapsed time, starts or ends a
transmission and flips the timers in one pass, reads the verdict caches
directly and calls out only when one misses, and walks the active set
through a member tuple cached with its verdict bitmask.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ctmc import RateParams, real_array
# perfbench/run.py wraps ``sim.check_all_feasible``, which is not called here.
from .localstate import check_all_feasible  # noqa: F401
from .phy import ChannelMatrix, NetworkTopology, PhyConfig
# perfbench/run.py wraps ``sim.is_independent``, which is not called here:
# the simulator judges active sets with ``independence_oracle``.
from .setspace import bit_ids, independence_oracle, is_independent  # noqa: F401


# Standard exponentials drawn per refill of a link's buffer: large enough
# that the refill call is a small share of a draw, small enough that filling
# every link's buffer in ``Simulator.__init__`` stays cheap.
_BUFFER = 64

# Entries one verdict cache may hold before all of them are emptied.  A
# benchmark run stays far below it (about 3k verdicts on dense-k25); at
# K = 100 all in range the caches would otherwise grow by about 140k
# verdicts per second of wall time, and most are never read again.
_CACHE_CAP = 1 << 17


def _exponentials(rng: np.random.Generator):
    """Endless standard exponentials from ``rng``, drawn ``_BUFFER`` at a time.

    ``scale * next(...)`` is bit-identical to ``rng.exponential(scale)``
    on the same stream, which computes the same product in C.
    """
    while True:
        yield from rng.standard_exponential(_BUFFER).tolist()


class ProtocolError(RuntimeError):
    """The event loop reached a state the protocol forbids."""


def _check_seed(seed) -> None:
    """Refuse a seed that is not a nonnegative integer, bools included."""
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or seed < 0):
        raise ValueError("seed must be a nonnegative integer")


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number and not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class SimConfig:
    """Run length, seed, rate parameters, and measurement warmup."""

    horizon: float
    seed: int = 0
    params: RateParams = None
    warmup: float = None

    def __post_init__(self):
        _check_seed(self.seed)
        if not _finite(self.horizon) or self.horizon < 0:
            raise ValueError("horizon must be finite and nonnegative")
        warmup = 0.1 * self.horizon if self.warmup is None else self.warmup
        if (not _finite(warmup) or warmup < 0
                or (warmup >= self.horizon and self.horizon > 0)):
            raise ValueError("warmup must be finite and lie in [0, horizon)")
        object.__setattr__(self, "warmup", warmup)


@dataclass(frozen=True)
class SimStats:
    """Accumulated statistics of a completed run (post-warmup window)."""

    busy_time: np.ndarray
    completed: np.ndarray
    occupancy: dict  # active-set bitmask -> occupied duration
    measured_time: float
    horizon: float
    warmup: float

    def occupancy_fractions(self) -> dict:
        """Time fraction spent in each active set, keyed by bitmask."""
        if self.measured_time <= 0:
            return {}
        return {m: t / self.measured_time for m, t in self.occupancy.items()}


def empirical_throughput(stats: SimStats) -> np.ndarray:
    """Per-link busy-time fraction over the measured window."""
    if stats.measured_time <= 0:
        return np.zeros_like(stats.busy_time)
    return stats.busy_time / stats.measured_time


class Simulator:
    """Steppable CSMA-SIC event loop.

    ``advance(until)`` processes all events up to the given time, so callers
    can interleave simulation epochs with parameter changes (``set_rates``).
    The protocol state is the ``active`` bitmask plus the timers.  A link may
    count down when ``active`` plus the link is independent, that is when no
    receiver that hears its transmitter vetoes it (Boorstyn et al., 1987).
    Independence is the oracle compiled from the topology in ``__init__``
    (``independence_oracle``), cached per mask; all verdicts are cached as
    one bitmask per active set (``_frontier``), read through the same cache
    as the invariant checks, so ``_frontier(mask)`` equals
    ``FeasibleFamily.frontier[mask]`` for every member of the family.
    Between events ``counting``, the links whose timers run, equals the
    frontier of ``active``.  On a frontier cache miss ``advance`` bounds the
    new set's frontier by ``counting`` and the pair rows ``_pairs[j]``, the
    frontier of ``{j}``, each judged the first time a miss needs it, and
    judges only the links between the bounds.  The verdict caches are
    emptied together when one reaches ``_CACHE_CAP`` entries; the pair rows
    stay.  ``due[i]`` is link i's next
    event time: its completion if it is active, its expiry if it counts,
    else ``math.inf``.
    ``advance`` takes the earliest, the lowest link id among equal ones,
    and handles each event in one pass of one loop on local variables; it
    goes through ``_frontier`` and ``_independent`` only when their caches
    miss.  Each event checks that an expiring timer was counting, that the
    new active set is independent and that the counted backoff equals its
    draw to 1e-6, and raises ``ProtocolError`` otherwise, with ``now`` at
    the event.
    """

    def __init__(self, topology: NetworkTopology, channel: ChannelMatrix,
                 phy: PhyConfig = None, params: RateParams = None, seed: int = 0,
                 warmup: float = 0.0, record_cycles: bool = False):
        self.topology = topology
        self.channel = channel
        self.phy = phy or topology.phy
        k = topology.n_links
        params = params or RateParams.uniform(k)
        self._backoff_scale = (1.0 / params.lam).tolist()
        self._hold_scale = (1.0 / params.mu).tolist()
        _check_seed(seed)
        if not _finite(warmup) or warmup < 0:
            raise ValueError("warmup must be finite and nonnegative")
        self.warmup = warmup
        self.record_cycles = record_cycles

        self._frontier_cache = {}
        self._members = {}
        self._indep_cache = {}
        self._all = (1 << k) - 1
        self._pairs = [None] * k
        self._oracle = independence_oracle(topology, channel, self.phy)

        for l in topology.links:
            if not self._independent(1 << l.id):
                raise ValueError(f"link {l.id} is not solo-feasible")

        self._draws = [
            _exponentials(np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(lid,)))))
            for lid in range(k)
        ]

        self.now = 0.0
        self.active = 0
        self._draw = [scale * next(stream) for scale, stream
                      in zip(self._backoff_scale, self._draws)]
        self._counted = [0.0] * k
        self.remaining = list(self._draw)
        self._resumed_at = [0.0] * k
        # every link is solo-feasible, so every timer counts from time 0
        self.counting = self._frontier(0)
        self.due = list(self._draw)
        self.cycles = [[] for _ in range(k)]  # (start_time, counted_backoff, duration)

        self.busy = [0.0] * k
        self.completed = [0] * k
        self._completed_total = [0] * k
        self.occupancy = {}

    # -- protocol mechanics -------------------------------------------------

    @property
    def completed_total(self) -> np.ndarray:
        """Transmissions completed per link since time 0, warmup included."""
        return np.array(self._completed_total, dtype=np.int64)

    def set_rates(self, lam) -> None:
        """Change activation rates; applies to subsequently drawn backoffs."""
        lam = real_array("rates", lam)
        if (lam.shape != (len(self._backoff_scale),)
                or not np.all(np.isfinite(lam) & (lam > 0))):
            raise ValueError("rates must be finite and positive, one per link")
        self._backoff_scale = (1.0 / lam).tolist()

    def _frontier(self, mask: int, front: int = 0, maybe: int = None) -> int:
        """Bitmask of the links outside ``mask`` that may start transmitting.

        ``front`` and ``maybe`` bound the answer: the links in ``front`` are
        taken as in, those outside ``maybe`` as out, and only the rest are
        judged.  Unbounded, every link outside ``mask`` is judged.  The
        frontier is stored in the cache, with the members of ``mask`` in
        ascending order, which ``advance`` walks while ``mask`` is the
        active set.
        """
        if maybe is None:
            maybe = self._all
        for i in bit_ids(maybe & ~(front | mask)):
            if self._independent(mask | 1 << i):
                front |= 1 << i
        if len(self._frontier_cache) >= _CACHE_CAP:
            self._forget()
        self._frontier_cache[mask] = front
        self._members[mask] = tuple(bit_ids(mask))
        return front

    def _pair_bound(self, mask: int) -> int:
        """The links that may run alongside each member of ``mask`` alone.

        That is the AND of the pair rows ``_pairs[j]`` over the members, and
        by downward closure it holds the frontier of ``mask``.  A row is the
        unbounded frontier of ``{j}``, judged the first time it is needed.
        """
        pairs, bound = self._pairs, self._all
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            row = pairs[j]
            if row is None:
                row = pairs[j] = self._frontier(low)
            bound &= row
        return bound

    def _independent(self, mask: int) -> bool:
        cache = self._indep_cache
        v = cache.get(mask)
        if v is None:
            v = self._oracle(mask)
            if len(cache) >= _CACHE_CAP:
                self._forget()
            cache[mask] = v
        return v

    def _forget(self) -> None:
        """Empty the verdict caches in place: ``advance`` holds their
        bound ``get``.  The pair rows are kept, one per link."""
        self._indep_cache.clear()
        self._frontier_cache.clear()
        self._members.clear()

    # -- driving ------------------------------------------------------------

    def advance(self, until: float) -> None:
        """Process all events up to the given simulation time.

        One pass of the loop is one event: credit the time since the last
        event to the active set, end or start the transmission of the link
        due first, then suspend and resume the timers whose verdict that
        flipped.  The state lives in locals while the loop runs, and
        ``now``, ``active`` and ``counting`` are written back on the way
        out, also when a ``ProtocolError`` ends the run.
        """
        if not _finite(until) or until < self.now:
            raise ValueError("advance needs a finite time no earlier than now")
        now, active, counting = self.now, self.active, self.counting
        warmup, due, remaining = self.warmup, self.due, self.remaining
        drawn, counted, resumed = self._draw, self._counted, self._resumed_at
        busy, occupancy, members = self.busy, self.occupancy, self._members
        completed, completed_total = self.completed, self._completed_total
        draws, hold_scale = self._draws, self._hold_scale
        backoff_scale = self._backoff_scale
        cycles = self.cycles if self.record_cycles else None
        frontier_of = self._frontier_cache.get
        independent_of = self._indep_cache.get
        inf = math.inf
        try:
            while due and (t := min(due)) <= until:
                link = due.index(t)
                lo = now if now >= warmup else warmup
                if t > lo:
                    dt = t - lo
                    occupancy[active] = occupancy.get(active, 0.0) + dt
                    for i in members[active]:
                        busy[i] += dt
                now = t
                bit = 1 << link
                if active & bit:
                    # completion: a fresh backoff, resumed below
                    active &= ~bit
                    due[link] = inf
                    completed_total[link] += 1
                    if now >= warmup:
                        completed[link] += 1
                    b = backoff_scale[link] * next(draws[link])
                    drawn[link] = b
                    counted[link] = 0.0
                    remaining[link] = b
                else:
                    # expiry: the link starts transmitting
                    if not counting & bit:
                        raise ProtocolError(
                            f"timer of link {link} expired while infeasible")
                    active |= bit
                    counting &= ~bit
                    ok = independent_of(active)
                    if ok is None:
                        ok = self._independent(active)
                    if not ok:
                        raise ProtocolError(
                            "active set left the independent-set family")
                    counted[link] += now - resumed[link]
                    if abs(counted[link] - drawn[link]) > 1e-6:
                        raise ProtocolError("backoff bookkeeping lost time "
                                            "across suspend/resume")
                    duration = hold_scale[link] * next(draws[link])
                    due[link] = now + duration
                    if cycles is not None:
                        cycles[link].append((now, drawn[link], duration))
                front = frontier_of(active)
                if front is None:
                    # downward closure: when a link starts, the old frontier
                    # and its pair row hold the new one; when a link ends,
                    # the new one holds the old one plus that link
                    if active & bit:
                        front = self._frontier(
                            active, 0, counting & self._pair_bound(bit))
                    else:
                        front = self._frontier(
                            active, counting | bit, self._pair_bound(active))
                stopped = counting & ~front
                while stopped:
                    low = stopped & -stopped
                    stopped ^= low
                    i = low.bit_length() - 1
                    remaining[i] = due[i] - now
                    due[i] = inf
                    counted[i] += now - resumed[i]
                started = front & ~counting
                while started:
                    low = started & -started
                    started ^= low
                    i = low.bit_length() - 1
                    due[i] = now + remaining[i]
                    resumed[i] = now
                counting = front
            lo = now if now >= warmup else warmup
            if until > lo:
                dt = until - lo
                occupancy[active] = occupancy.get(active, 0.0) + dt
                for i in members[active]:
                    busy[i] += dt
            now = until
        finally:
            self.now, self.active, self.counting = now, active, counting

    def stats(self) -> SimStats:
        measured = max(0.0, self.now - self.warmup)
        return SimStats(
            busy_time=np.array(self.busy, dtype=np.float64),
            completed=np.array(self.completed, dtype=np.int64),
            occupancy=dict(self.occupancy),
            measured_time=measured,
            horizon=self.now,
            warmup=self.warmup,
        )


def run(topology: NetworkTopology, channel: ChannelMatrix, phy: PhyConfig,
        cfg: SimConfig) -> SimStats:
    """Run the protocol for the configured horizon and return its statistics."""
    sim = Simulator(topology, channel, phy=phy, params=cfg.params,
                    seed=cfg.seed, warmup=cfg.warmup)
    if cfg.horizon > 0:
        sim.advance(cfg.horizon)
    return sim.stats()
