"""Continuous-time event-driven simulation of the CSMA-SIC protocol.

Every backlogged link counts down an exponential backoff timer that is
suspended whenever the transmission would be infeasible and resumed (with
its remaining time preserved) once it becomes feasible again.  Control
signaling is instantaneous, so a transmitter's view is the set of ongoing
links with an endpoint in its range, and a link may start when that view
plus the link is independent: the verdict of the transmitter's table check
(``localstate``) under the static channel.  Views are judged by
``setspace.independence_oracle``, which compiles ``is_independent`` once
per topology into bitmask lookups and the same decode arithmetic.  The
verdicts for one active set are cached as a bitmask; a new set's bitmask
is bounded by those of the cached sets one link away, so only the links
they leave open are judged.  Every start and end of a transmission
suspends or resumes only the links whose verdict it flipped.
The run is deterministic given the seed, with one independent random
stream per link.
"""

import heapq
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .ctmc import RateParams
# perfbench/run.py wraps ``sim.check_all_feasible``, which is not called here.
from .localstate import MissingGainError, check_all_feasible  # noqa: F401
from .phy import ChannelMatrix, NetworkTopology, PhyConfig
# perfbench/run.py wraps ``sim.is_independent``, which is not called here:
# the simulator judges views with ``independence_oracle``.
from .setspace import bit_ids, independence_oracle, is_independent  # noqa: F401

_COMPLETION = 0  # tie-break: completions before timer expiries
_EXPIRY = 1


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
    count down when the links of ``active`` its transmitter hears, plus the
    link, are independent.  Independence is the oracle compiled from the
    topology in ``__init__`` (``independence_oracle``), cached per mask; all
    verdicts are cached as one bitmask per active set (``_frontier``), read
    through the same cache as the invariant checks.
    A miss reuses the cached bitmasks of the sets one link away, the previous
    active set among them, and judges only the links they leave undecided.
    Between events ``counting``, the links whose timers run (each with one
    live expiry on the heap), equals ``_frontier(active)``.
    """

    def __init__(self, topology: NetworkTopology, channel: ChannelMatrix,
                 phy: PhyConfig = None, params: RateParams = None, seed: int = 0,
                 warmup: float = 0.0, record_cycles: bool = False):
        self.topology = topology
        self.channel = channel
        self.phy = phy or topology.phy
        k = topology.n_links
        params = params or RateParams.uniform(k)
        self.lam = params.lam.copy()
        self.mu = params.mu.copy()
        if not math.isfinite(warmup) or warmup < 0:
            raise ValueError("warmup must be finite and nonnegative")
        self.warmup = warmup
        self.record_cycles = record_cycles

        self._frontier_cache = {}
        self._indep_cache = {}
        self._oracle = independence_oracle(topology, channel, self.phy)

        # Per transmitter, the links whose transmitter and whose receiver are
        # out of its range.  It knows the gains of node pairs with an end in
        # its range, so a view holding one link of each lacks a gain.
        senders = {l.tx for l in topology.links}
        self.far_tx = {v: sum(1 << l.id for l in topology.links
                              if not topology.in_range(l.tx, v))
                       for v in senders}
        self.far_rx = {v: sum(1 << l.id for l in topology.links
                              if not topology.in_range(l.rx, v))
                       for v in senders}
        for l in topology.links:
            if not self._independent(1 << l.id):
                raise ValueError(f"link {l.id} is not solo-feasible")

        self.rng = [
            np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(lid,))))
            for lid in range(k)
        ]

        self.now = 0.0
        self.active = 0
        self.counting = 0
        self.expiry = [0.0] * k
        self.remaining = [0.0] * k
        self.token = [0] * k
        self.heap = []
        self._draw = [0.0] * k
        self._counted = [0.0] * k
        self._resumed_at = [0.0] * k
        self.cycles = [[] for _ in range(k)]  # (start_time, counted_backoff, duration)

        self.busy = np.zeros(k)
        self.completed = np.zeros(k, dtype=np.int64)
        self.completed_total = np.zeros(k, dtype=np.int64)
        self.occupancy = {}
        self.last_t = 0.0

        for i in range(k):
            self._fresh_backoff(i)
        self._reevaluate()

    # -- protocol mechanics -------------------------------------------------

    def set_rates(self, lam) -> None:
        """Change activation rates; applies to subsequently drawn backoffs."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape != self.lam.shape or not np.all(np.isfinite(lam) & (lam > 0)):
            raise ValueError("rates must be finite and positive, one per link")
        self.lam = lam.copy()

    def _frontier(self, mask: int) -> int:
        """Bitmask of the links outside ``mask`` that may start transmitting.

        A view only grows with the mask and independence is downward closed,
        so a link outside the cached frontier of ``mask`` minus one link
        stays out, and one inside the cached frontier of ``mask`` plus one
        link stays in.  Only the links those leave undecided are judged.
        """
        cache = self._frontier_cache
        front = cache.get(mask)
        if front is None:
            links = self.topology.links
            front, maybe = 0, ~mask
            for l in links:
                near = cache.get(mask ^ 1 << l.id)
                if near is not None:
                    if mask >> l.id & 1:
                        maybe &= near
                    else:
                        front |= near
            undecided = maybe & ~front
            for l in links:
                if mask >> l.id & 1:
                    continue
                far_tx, far_rx = self.far_tx[l.tx], self.far_rx[l.tx]
                view = mask & ~(far_tx & far_rx) | 1 << l.id
                if view & far_tx and view & far_rx:
                    t, r = (links[next(bit_ids(view & m))] for m in (far_tx, far_rx))
                    raise MissingGainError(f"node {l.tx} has no gain estimate "
                                           f"for pair ({t.tx}, {r.rx})")
                if undecided >> l.id & 1 and self._independent(view):
                    front |= 1 << l.id
            cache[mask] = front
        return front

    def _independent(self, mask: int) -> bool:
        v = self._indep_cache.get(mask)
        if v is None:
            v = self._indep_cache[mask] = self._oracle(mask)
        return v

    def _fresh_backoff(self, link: int) -> None:
        b = self.rng[link].exponential(1.0 / self.lam[link])
        self._draw[link] = b
        self._counted[link] = 0.0
        self.remaining[link] = b

    def _reevaluate(self) -> None:
        front = self._frontier(self.active)
        for i in bit_ids(self.counting & ~front):
            self.remaining[i] = self.expiry[i] - self.now
            self._counted[i] += self.now - self._resumed_at[i]
            self.token[i] += 1
        for i in bit_ids(front & ~self.counting):
            self.expiry[i] = self.now + self.remaining[i]
            self._resumed_at[i] = self.now
            self.token[i] += 1
            heapq.heappush(self.heap, (self.expiry[i], _EXPIRY, i,
                                       self.token[i]))
        self.counting = front

    def _expire(self, link: int) -> None:
        if not self.counting >> link & 1:
            raise ProtocolError(f"timer of link {link} expired while infeasible")
        self._accumulate(self.now)
        self.active |= 1 << link
        self.counting &= ~(1 << link)
        if not self._independent(self.active):
            raise ProtocolError("active set left the independent-set family")
        self._counted[link] += self.now - self._resumed_at[link]
        if abs(self._counted[link] - self._draw[link]) > 1e-6:
            raise ProtocolError("backoff bookkeeping lost time across "
                                "suspend/resume")
        self.token[link] += 1
        duration = self.rng[link].exponential(1.0 / self.mu[link])
        heapq.heappush(self.heap, (self.now + duration, _COMPLETION, link,
                                   self.token[link]))
        if self.record_cycles:
            self.cycles[link].append((self.now, self._draw[link], duration))
        self._reevaluate()

    def _complete(self, link: int) -> None:
        self._accumulate(self.now)
        self.active &= ~(1 << link)
        self.completed_total[link] += 1
        if self.now >= self.warmup:
            self.completed[link] += 1
        self._fresh_backoff(link)
        self._reevaluate()

    def _accumulate(self, t: float) -> None:
        if t > self.last_t:
            lo = max(self.last_t, self.warmup)
            if t > lo:
                dt = t - lo
                self.occupancy[self.active] = self.occupancy.get(self.active, 0.0) + dt
                for i in bit_ids(self.active):
                    self.busy[i] += dt
            self.last_t = t

    # -- driving ------------------------------------------------------------

    def advance(self, until: float) -> None:
        """Process all events up to the given simulation time."""
        if not math.isfinite(until) or until < self.now:
            raise ValueError("advance needs a finite time no earlier than now")
        while self.heap and self.heap[0][0] <= until:
            t, rank, link, token = heapq.heappop(self.heap)
            if token != self.token[link]:
                continue  # cancelled by a suspend or state change
            self.now = t
            if rank == _COMPLETION:
                self._complete(link)
            else:
                self._expire(link)
        self._accumulate(until)
        self.now = until

    def stats(self) -> SimStats:
        measured = max(0.0, self.now - self.warmup)
        return SimStats(
            busy_time=self.busy.copy(),
            completed=self.completed.copy(),
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
