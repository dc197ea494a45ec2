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
verdicts for one active set are cached as a bitmask; a new set's bitmask
is bounded by those of the cached sets one link away, so only the links
they leave open are judged.  Every start and end of a transmission
suspends or resumes only the links whose verdict it flipped.  The event
queue is one due time per link; the earliest goes next, the lowest link id
among equal ones.  The run is deterministic given the seed, with one random
stream per link, so the order of simultaneous events changes no draw.
Each link draws its backoffs and holding times from a buffer of standard
exponentials refilled from its own stream, scaled by 1/lambda or 1/mu; the
values are bit-identical to scalar ``Generator.exponential`` draws, and the
event step runs on plain Python floats and ints.
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


def _exponentials(rng: np.random.Generator):
    """Endless standard exponentials from ``rng``, drawn ``_BUFFER`` at a time.

    ``scale * next(...)`` is bit-identical to ``rng.exponential(scale)``
    on the same stream, which computes the same product in C.
    """
    while True:
        yield from rng.standard_exponential(_BUFFER).tolist()


class ProtocolError(RuntimeError):
    """The event loop reached a state the protocol forbids."""


@dataclass(frozen=True)
class SimConfig:
    """Run length, seed, rate parameters, and measurement warmup."""

    horizon: float
    seed: int = 0
    params: RateParams = None
    warmup: float = None

    def __post_init__(self):
        if (not isinstance(self.seed, numbers.Integral)
                or isinstance(self.seed, bool) or self.seed < 0):
            raise ValueError("seed must be a nonnegative integer")
        if not math.isfinite(self.horizon) or self.horizon < 0:
            raise ValueError("horizon must be finite and nonnegative")
        warmup = 0.1 * self.horizon if self.warmup is None else self.warmup
        if (not math.isfinite(warmup) or warmup < 0
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
    A miss reuses the cached bitmasks of the sets one link away, the previous
    active set among them, and judges only the links they leave undecided.
    Between events ``counting``, the links whose timers run, equals
    ``_frontier(active)``, and ``due[i]`` is link i's next event time: its
    completion if it is active, its expiry if it counts, else ``math.inf``.
    ``advance`` takes the earliest, the lowest link id among equal ones.
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
        if not math.isfinite(warmup) or warmup < 0:
            raise ValueError("warmup must be finite and nonnegative")
        self.warmup = warmup
        self.record_cycles = record_cycles

        self._frontier_cache = {}
        self._indep_cache = {}
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
        self.counting = 0
        self.due = [math.inf] * k
        self.remaining = [0.0] * k
        self._draw = [0.0] * k
        self._counted = [0.0] * k
        self._resumed_at = [0.0] * k
        self.cycles = [[] for _ in range(k)]  # (start_time, counted_backoff, duration)

        self.busy = [0.0] * k
        self.completed = [0] * k
        self._completed_total = [0] * k
        self.occupancy = {}

        for i in range(k):
            self._fresh_backoff(i)
        self._reevaluate()

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

    def _frontier(self, mask: int) -> int:
        """Bitmask of the links outside ``mask`` that may start transmitting.

        Independence is downward closed, so a link outside the cached
        frontier of ``mask`` minus one link stays out, and one inside the
        cached frontier of ``mask`` plus one link stays in.  Only the links
        those leave undecided are judged.
        """
        cache = self._frontier_cache
        front = cache.get(mask)
        if front is None:
            n = self.topology.n_links
            front, maybe = 0, ~mask & (1 << n) - 1
            for j in range(n):
                near = cache.get(mask ^ 1 << j)
                if near is not None:
                    if mask >> j & 1:
                        maybe &= near
                    else:
                        front |= near
            for i in bit_ids(maybe & ~front):
                if self._independent(mask | 1 << i):
                    front |= 1 << i
            cache[mask] = front
        return front

    def _independent(self, mask: int) -> bool:
        v = self._indep_cache.get(mask)
        if v is None:
            v = self._indep_cache[mask] = self._oracle(mask)
        return v

    def _fresh_backoff(self, link: int) -> None:
        b = self._backoff_scale[link] * next(self._draws[link])
        self._draw[link] = b
        self._counted[link] = 0.0
        self.remaining[link] = b

    def _reevaluate(self) -> None:
        front = self._frontier(self.active)
        stopped = self.counting & ~front
        if stopped:
            for i in bit_ids(stopped):
                self.remaining[i] = self.due[i] - self.now
                self.due[i] = math.inf
                self._counted[i] += self.now - self._resumed_at[i]
        started = front & ~self.counting
        if started:
            for i in bit_ids(started):
                self.due[i] = self.now + self.remaining[i]
                self._resumed_at[i] = self.now
        self.counting = front

    def _expire(self, link: int) -> None:
        if not self.counting >> link & 1:
            raise ProtocolError(f"timer of link {link} expired while infeasible")
        self.active |= 1 << link
        self.counting &= ~(1 << link)
        if not self._independent(self.active):
            raise ProtocolError("active set left the independent-set family")
        self._counted[link] += self.now - self._resumed_at[link]
        if abs(self._counted[link] - self._draw[link]) > 1e-6:
            raise ProtocolError("backoff bookkeeping lost time across "
                                "suspend/resume")
        duration = self._hold_scale[link] * next(self._draws[link])
        self.due[link] = self.now + duration
        if self.record_cycles:
            self.cycles[link].append((self.now, self._draw[link], duration))
        self._reevaluate()

    def _complete(self, link: int) -> None:
        self.active &= ~(1 << link)
        self.due[link] = math.inf
        self._completed_total[link] += 1
        if self.now >= self.warmup:
            self.completed[link] += 1
        self._fresh_backoff(link)
        self._reevaluate()

    def _accumulate(self, t: float) -> None:
        lo = self.now if self.now >= self.warmup else self.warmup
        if t > lo:
            dt = t - lo
            self.occupancy[self.active] = self.occupancy.get(self.active, 0.0) + dt
            for i in bit_ids(self.active):
                self.busy[i] += dt

    # -- driving ------------------------------------------------------------

    def advance(self, until: float) -> None:
        """Process all events up to the given simulation time."""
        if not math.isfinite(until) or until < self.now:
            raise ValueError("advance needs a finite time no earlier than now")
        due = self.due
        while due and (t := min(due)) <= until:
            link = due.index(t)
            self._accumulate(t)
            self.now = t
            if self.active >> link & 1:
                self._complete(link)
            else:
                self._expire(link)
        self._accumulate(until)
        self.now = until

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
