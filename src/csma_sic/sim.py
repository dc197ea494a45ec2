"""Continuous-time event-driven simulation of the CSMA-SIC protocol.

Every backlogged link counts down an exponential backoff timer that is
suspended whenever the transmission would be infeasible and resumed (with
its remaining time preserved) once it becomes feasible again.  Control
signaling is instantaneous, so a node's view is a function of the set of
ongoing transmissions: its coefficient table holds every gain overhearing
teaches it under the static channel, and its transmission table holds the
ongoing links with an endpoint in its range.  Every start and end of a
transmission re-evaluates every link's feasibility from those views.  The
run is deterministic given the seed, with one independent random stream
per link.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .ctmc import RateParams
from .localstate import TxTable, check_all_feasible, warm_coeff_table
from .phy import ChannelMatrix, NetworkTopology, PhyConfig
from .setspace import LinkSet, is_independent

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
    count down when its transmitter's local check passes; the tables that
    check reads are derived from ``active``, so the verdicts of all links are
    cached together as one bitmask per active set (``_frontier``).
    """

    def __init__(self, topology: NetworkTopology, channel: ChannelMatrix,
                 phy: PhyConfig = None, params: RateParams = None, seed: int = 0,
                 warmup: float = 0.0, check_invariants: bool = True,
                 record_cycles: bool = False):
        self.topology = topology
        self.channel = channel
        self.phy = phy or topology.phy
        k = topology.n_links
        params = params or RateParams.uniform(k)
        self.lam = params.lam.copy()
        self.mu = params.mu.copy()
        self.warmup = warmup
        self.check_invariants = check_invariants
        self.record_cycles = record_cycles

        # Only transmitters run the local check, so only they need a view:
        # their coefficient table, and the links they hear about, that is,
        # those with an endpoint in range of the transmitter.
        senders = {l.tx for l in topology.links}
        self.coeffs = {v: warm_coeff_table(topology, channel, v)
                       for v in senders}
        self.heard = {
            v: sum(1 << l.id for l in topology.links
                   if topology.in_range(l.tx, v) or topology.in_range(l.rx, v))
            for v in senders
        }
        self.beta_by_pair = {
            (l.tx, l.rx): self.phy.beta_for(l.id) for l in topology.links
        }
        for l in topology.links:
            if not check_all_feasible(l.tx, l.rx, self.coeffs[l.tx],
                                      TxTable(l.tx), self.phy, self.beta_by_pair):
                raise ValueError(f"link {l.id} is not solo-feasible")

        self.rng = [
            np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(lid,))))
            for lid in range(k)
        ]

        self.now = 0.0
        self.active = 0
        self.state = ["counting"] * k
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

        self._frontier_cache = {}
        self._indep_cache = {}

        for i in range(k):
            self._fresh_backoff(i)

    # -- protocol mechanics -------------------------------------------------

    def set_rates(self, lam) -> None:
        """Change activation rates; applies to subsequently drawn backoffs."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape != self.lam.shape or np.any(lam <= 0):
            raise ValueError("rates must be positive, one per link")
        self.lam = lam.copy()

    def _frontier(self, mask: int) -> int:
        """Bitmask of the links outside ``mask`` that may start transmitting."""
        front = self._frontier_cache.get(mask)
        if front is None:
            front = 0
            links = self.topology.links
            for l in links:
                if mask >> l.id & 1:
                    continue
                txs = TxTable(l.tx)
                m = mask & self.heard[l.tx]
                while m:
                    o = links[(m & -m).bit_length() - 1]
                    txs.register(o.tx, o.rx)
                    m &= m - 1
                if check_all_feasible(l.tx, l.rx, self.coeffs[l.tx], txs,
                                      self.phy, self.beta_by_pair):
                    front |= 1 << l.id
            self._frontier_cache[mask] = front
        return front

    def _feasible(self, link: int) -> bool:
        return bool(self._frontier(self.active) >> link & 1)

    def _independent(self, mask: int) -> bool:
        v = self._indep_cache.get(mask)
        if v is None:
            v = is_independent(LinkSet(mask, self.topology.n_links),
                               self.topology, self.channel, self.phy)
            self._indep_cache[mask] = v
        return v

    def _fresh_backoff(self, link: int) -> None:
        b = self.rng[link].exponential(1.0 / self.lam[link])
        self._draw[link] = b
        self._counted[link] = 0.0
        self.token[link] += 1
        if self._feasible(link):
            self.state[link] = "counting"
            self.expiry[link] = self.now + b
            self._resumed_at[link] = self.now
            heapq.heappush(self.heap, (self.expiry[link], _EXPIRY, link,
                                       self.token[link]))
        else:
            self.state[link] = "suspended"
            self.remaining[link] = b

    def _reevaluate(self) -> None:
        front = self._frontier(self.active)
        for i, st in enumerate(self.state):
            if st == "transmitting":
                continue
            feas = front >> i & 1
            if st == "counting" and not feas:
                self.remaining[i] = self.expiry[i] - self.now
                self._counted[i] += self.now - self._resumed_at[i]
                self.token[i] += 1
                self.state[i] = "suspended"
            elif st == "suspended" and feas:
                self.expiry[i] = self.now + self.remaining[i]
                self._resumed_at[i] = self.now
                self.token[i] += 1
                self.state[i] = "counting"
                heapq.heappush(self.heap, (self.expiry[i], _EXPIRY, i,
                                           self.token[i]))

    def _expire(self, link: int) -> None:
        if self.state[link] != "counting":
            raise ProtocolError(f"expiry event for link {link} in state "
                                f"{self.state[link]}")
        if self.check_invariants and not self._feasible(link):
            raise ProtocolError(f"timer of link {link} expired while infeasible")
        self._accumulate(self.now)
        self.active |= 1 << link
        if self.check_invariants:
            if not self._independent(self.active):
                raise ProtocolError("active set left the independent-set family")
            self._counted[link] += self.now - self._resumed_at[link]
            if abs(self._counted[link] - self._draw[link]) > 1e-6:
                raise ProtocolError("backoff bookkeeping lost time across "
                                    "suspend/resume")
        self.state[link] = "transmitting"
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
                m = self.active
                while m:
                    i = (m & -m).bit_length() - 1
                    self.busy[i] += dt
                    m &= m - 1
            self.last_t = t

    # -- driving ------------------------------------------------------------

    def advance(self, until: float) -> None:
        """Process all events up to the given simulation time."""
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
        cfg: SimConfig, **kwargs) -> SimStats:
    """Run the protocol for the configured horizon and return its statistics."""
    sim = Simulator(topology, channel, phy=phy, params=cfg.params,
                    seed=cfg.seed, warmup=cfg.warmup, **kwargs)
    if cfg.horizon > 0:
        sim.advance(cfg.horizon)
    return sim.stats()
