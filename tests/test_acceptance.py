"""Acceptance suite: one test per published guarantee of this package.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or
on failure) and asserts the stated tolerance. Run with::

    pytest tests/test_acceptance.py -v
"""

import functools
import itertools
import sys

import numpy as np
import yaml

from csma_sic import (AdaptConfig, LinkSet, RateParams, SimConfig, TxTable,
                      adapt_run, build_channel_matrix, capacity_contains,
                      check_all_feasible, detailed_balance_residual,
                      empirical_throughput, enumerate_feasible,
                      expected_throughput, global_balance_residual,
                      is_independent, run, steady_state, warm_coeff_table)
from csma_sic._kernel import decode_feasible
from csma_sic.cli import main as cli_main
from conftest import random_topology, triangle_topology


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {verdict}{tail}", file=sys.stderr)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_1_product_form_balance():
    """Stationary law satisfies global and detailed balance on random chains."""
    rng = np.random.default_rng(101)
    worst_global, worst_detailed = 0.0, 0.0
    for _ in range(50):
        k = int(rng.integers(1, 7))
        topo = random_topology(rng, k)
        channel = build_channel_matrix(topo)
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=rng.uniform(-3, 3, size=k))
        ss = steady_state(fam, params)
        worst_global = max(worst_global,
                           global_balance_residual(fam, params, ss))
        worst_detailed = max(worst_detailed,
                             detailed_balance_residual(fam, params, ss))
    ok = worst_global <= 1e-10 and worst_detailed <= 1e-12
    _report(1, "product-form balance residuals", ok,
            f"global {worst_global:.2e}, detailed {worst_detailed:.2e}")


def _tv_and_tau_gap(topo, channel, params, seed):
    fam = enumerate_feasible(topo, channel)
    ss = steady_state(fam, params)
    tau = expected_throughput(fam, params)
    stats = run(topo, channel,
                SimConfig(horizon=1e6, seed=seed, params=params))
    frac = stats.occupancy_fractions()
    tv = 0.5 * (sum(abs(frac.get(bits, 0.0) - p)
                    for bits, p in zip(fam.sets, ss.probs))
                + sum(f for m, f in frac.items() if m not in fam))
    tau_gap = float(np.max(np.abs(empirical_throughput(stats) - tau)))
    return tv, tau_gap


def test_2_simulator_matches_steady_state():
    """Long-run occupancy and throughput agree with the analytical law."""
    worst_tv, worst_tau = 0.0, 0.0
    topo = triangle_topology()
    channel = build_channel_matrix(topo)
    tv, gap = _tv_and_tau_gap(topo, channel, RateParams.uniform(3), seed=2)
    worst_tv, worst_tau = max(worst_tv, tv), max(worst_tau, gap)
    rng = np.random.default_rng(202)
    for i in range(10):
        k = int(rng.integers(2, 6))
        topo = random_topology(rng, k)
        channel = build_channel_matrix(topo)
        params = RateParams(r=rng.uniform(-1, 1, size=k))
        tv, gap = _tv_and_tau_gap(topo, channel, params, seed=300 + i)
        worst_tv, worst_tau = max(worst_tv, tv), max(worst_tau, gap)
    ok = worst_tv <= 0.02 and worst_tau <= 0.02
    _report(2, "ergodic agreement over 11 scenarios", ok,
            f"max TV {worst_tv:.4f}, max throughput gap {worst_tau:.4f}")


def test_3_local_global_equivalence():
    """Table-driven feasibility equals the global verdict when all is in range."""
    rng = np.random.default_rng(303)
    checked, mismatches = 0, 0
    while checked < 1000:
        k = int(rng.integers(2, 7))
        topo = random_topology(rng, k)
        channel = build_channel_matrix(topo)
        cand = int(rng.integers(0, k))
        active_ids = [i for i in range(k)
                      if i != cand and rng.random() < 0.5]
        base = LinkSet.from_ids(active_ids, k)
        if not is_independent(base, topo, channel):
            continue
        link = topo.links[cand]
        txs = TxTable(owner=link.tx)
        for i in active_ids:
            txs.register(topo.links[i].tx, topo.links[i].rx)
        local = check_all_feasible(link.tx, link.rx,
                                   warm_coeff_table(topo, channel, link.tx),
                                   txs, topo.phy)
        glob = is_independent(LinkSet(base.bits | 1 << cand, k), topo,
                              channel)
        mismatches += local != glob
        checked += 1
    _report(3, "local/global feasibility equivalence", mismatches == 0,
            f"{checked - mismatches}/{checked} agree")


def test_4_decode_order_property():
    """A decodable signal implies every strictly stronger one is decodable."""
    rng = np.random.default_rng(404)
    violations, checked = 0, 0
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        gains = rng.uniform(0.01, 5.0, size=m)
        tx_ids = np.arange(m, dtype=np.int64)
        beta = float(rng.uniform(0.3, 3.0))
        betas = np.full(m, beta)
        noise = float(rng.uniform(0.0, 0.5))
        z = float(rng.choice([1.0, 0.8, 0.5, 0.2, 0.0]))
        decodable = [decode_feasible(gains, tx_ids, t, betas, noise, z)
                     for t in range(m)]
        for a in range(m):
            if not decodable[a]:
                continue
            for b in range(m):
                checked += 1
                if gains[b] > gains[a] and not decodable[b]:
                    violations += 1
    _report(4, "decode-order monotonicity", violations == 0,
            f"{violations} violations over {checked} ordered pairs")


def _maximal_vectors(fam):
    v = fam.vectors()
    keep = []
    for i in range(len(v)):
        if not any(j != i and np.all(v[j] >= v[i]) and np.any(v[j] > v[i])
                   for j in range(len(v))):
            keep.append(v[i])
    return np.unique(np.array(keep), axis=0)


@functools.lru_cache(maxsize=None)
def _simplex_grid(parts, n):
    """All weight vectors of `parts` multiples of 1/n that sum to 1, one a row."""
    cuts = np.array(list(itertools.combinations(range(n + parts - 1),
                                                parts - 1)), dtype=np.int64)
    ends = np.ones((len(cuts), 1), dtype=np.int64)
    bounds = np.hstack([-ends, cuts, (n + parts - 1) * ends])
    return (np.diff(bounds, axis=1) - 1) / n


def _grid_mixtures(vectors, size, step):
    """All mixtures of `size` vectors with weights on a simplex grid."""
    w = _simplex_grid(size, round(1.0 / step))
    return np.concatenate([
        w @ vectors[list(subset)]
        for subset in itertools.combinations(range(len(vectors)), size)])


def _grid_inside(x, vectors):
    """Grid certificate that a dominating mixture exists (inner check)."""
    for size, step in ((1, 1.0), (2, 0.01), (3, 0.01), (4, 0.02)):
        if size > len(vectors):
            break
        mixes = _grid_mixtures(vectors, size, step)
        if np.any(np.all(mixes >= x - 1e-12, axis=1)):
            return True
    return False


def _grid_outside(x, vectors, step=0.01):
    """Grid of dual directions certifying x lies beyond every mixture."""
    w = _simplex_grid(len(x), round(1.0 / step))
    return bool(np.any(w @ x > np.max(w @ vectors.T, axis=1) + 1e-12))


def test_5_capacity_region_lp():
    """LP membership agrees with the grid oracle; anchor points behave."""
    topo = triangle_topology()
    channel = build_channel_matrix(topo)
    fam = enumerate_feasible(topo, channel)
    ok_in, alpha = capacity_contains([2 / 3] * 3, fam)
    witness_ok = (ok_in and abs(alpha.sum() - 1) <= 1e-9
                  and np.all(alpha >= -1e-9)
                  and np.all(fam.vectors().T @ alpha >= 2 / 3 - 1e-9))
    ok_out, _ = capacity_contains([0.7] * 3, fam)
    anchors = witness_ok and not ok_out

    rng = np.random.default_rng(505)
    checked, agree = 0, 0
    while checked < 200:
        k = int(rng.integers(2, 5))
        topo = random_topology(rng, k)
        channel = build_channel_matrix(topo)
        fam = enumerate_feasible(topo, channel)
        vmax = _maximal_vectors(fam)
        x = rng.uniform(0.0, 1.0, size=k) * rng.uniform(0.5, 1.4)
        inside = _grid_inside(x, vmax)
        outside = _grid_outside(x, vmax)
        if inside == outside:  # grid oracle is not decisive for this point
            continue
        verdict, _ = capacity_contains(x, fam)
        agree += verdict == inside
        checked += 1
    ok = anchors and agree == checked
    _report(5, "capacity LP vs grid oracle", ok,
            f"anchors {'ok' if anchors else 'bad'}, {agree}/{checked} agree")


def test_6_gradient_adaptation():
    """Feasible targets are served with flat queues; infeasible ones are not."""
    topo = triangle_topology()
    channel = build_channel_matrix(topo)
    cfg = AdaptConfig(target_rates=[0.5, 0.5, 0.5], update_period=100.0,
                      max_updates=500, step_a0=5.0, step_i0=1e18)
    trace = adapt_run(topo, channel, cfg, seed=1)
    n = len(trace.times)
    service = trace.tau_emp[3 * n // 4:].mean(axis=0)
    slopes = np.abs(trace.queue_slopes())
    feasible_ok = bool(np.all(service >= 0.47) and np.all(slopes <= 1e-4))

    hot = AdaptConfig(target_rates=[0.9, 0.9, 0.9], update_period=100.0,
                      max_updates=500, step_a0=5.0, step_i0=1e18)
    hot_trace = adapt_run(topo, channel, hot, seed=1)
    infeasible_ok = bool(np.any(hot_trace.queue_slopes() > 0.05))
    _report(6, "gradient rate adaptation", feasible_ok and infeasible_ok,
            f"min service {service.min():.3f}, max |slope| {slopes.max():.2e}, "
            f"overload slope {hot_trace.queue_slopes().max():.3f}")


def test_7_csv_determinism(tmp_path):
    """Identical scenario and seed give byte-identical CSV for every command."""
    topo = triangle_topology()
    scenario = {
        "phy": {"noise_power": 0.1, "sinr_threshold": 2.0,
                "cancel_fraction": 1.0, "radius": 5.0,
                "path_loss_exponent": 3.0},
        "topology": {
            "nodes": [{"id": v.id, "pos": [float(v.x), float(v.y)]}
                      for v in topo.nodes],
            "links": [{"id": l.id, "tx": l.tx, "rx": l.rx}
                      for l in topo.links],
        },
        "rates": {"r": [0.2, 0.0, -0.2]},
        "sim": {"horizon": 20000.0, "seed": 11},
        "capacity": {"x": [0.4, 0.4, 0.4]},
        "adapt": {"target_rates": [0.3, 0.3, 0.3], "max_updates": 30},
    }
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(scenario))
    ok = True
    for cmd in ("analyze", "simulate", "capacity", "adapt"):
        a, b = tmp_path / f"{cmd}_a.csv", tmp_path / f"{cmd}_b.csv"
        assert cli_main([cmd, str(path), "--out", str(a)]) == 0
        assert cli_main([cmd, str(path), "--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    _report(7, "byte-identical CSV on re-run", ok)
