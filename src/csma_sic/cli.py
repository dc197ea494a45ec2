"""Command-line front end: analyze | simulate | capacity | adapt.

Each command reads a scenario file, runs the corresponding engine, prints a
human-readable summary, and optionally writes a CSV result table.  Output
is locale-independent and byte-stable for a fixed scenario and seed.
"""

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from . import adapt as adapt_mod
from . import ctmc, setspace, sim
from .scenario import Scenario, ScenarioError, load_scenario
from .setspace import EnumerationCapError, enumerate_feasible


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{float(v):.12g}"


def _write_table(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["quantity", "id", "analytical", "empirical", "abs_diff"])
        for quantity, ident, ana, emp in rows:
            diff = None if ana is None or emp is None else abs(ana - emp)
            w.writerow([quantity, ident, _fmt(ana), _fmt(emp), _fmt(diff)])


def _analyze_rows(scn: Scenario):
    family = enumerate_feasible(scn.topology, scn.channel, scn.topology.phy)
    q = ctmc.steady_state(family, scn.params)
    tau = q.throughput()
    rows = [("Q", str(d), p, None) for d, p in sorted(q.probs.items())]
    rows += [("tau", str(i), t, None) for i, t in enumerate(tau)]
    return family, q, tau, rows


def cmd_analyze(scn: Scenario, out=None) -> int:
    family, q, tau, rows = _analyze_rows(scn)
    print(f"feasible sets: {len(family)}")
    if q.unreachable:
        print(f"warning: {len(q.unreachable)} feasible sets unreachable from "
              f"the empty set: {[str(s) for s in q.unreachable]}")
    for d, p in sorted(q.probs.items()):
        print(f"Q{d} = {_fmt(p)}")
    for i, t in enumerate(tau):
        print(f"tau[{i}] = {_fmt(t)}")
    if out:
        _write_table(out, rows)
    return 0


def cmd_simulate(scn: Scenario, out=None) -> int:
    stats = sim.run(scn.topology, scn.channel, scn.topology.phy, scn.sim)
    emp_tau = sim.empirical_throughput(stats)
    occ = stats.occupancy_fractions()
    try:
        family = enumerate_feasible(scn.topology, scn.channel, scn.topology.phy)
        q = ctmc.steady_state(family, scn.params)
        tau = q.throughput()
        ana_occ = {d.bits: p for d, p in q.probs.items()}
        width = family.width
    except EnumerationCapError:
        family, q, tau, ana_occ, width = None, None, None, {}, scn.topology.n_links

    rows = []
    for bits in sorted(set(occ) | set(ana_occ)):
        name = str(setspace.LinkSet(bits, width))
        rows.append(("occupancy", name, ana_occ.get(bits), occ.get(bits, 0.0)))
    for i in range(scn.topology.n_links):
        rows.append(("tau", str(i), None if tau is None else float(tau[i]),
                     float(emp_tau[i])))
    for quantity, ident, ana, emp in rows:
        diff = "" if ana is None or emp is None else f" |diff|={_fmt(abs(ana - emp))}"
        ana_s = "" if ana is None else f" analytical={_fmt(ana)}"
        print(f"{quantity} {ident}:{ana_s} empirical={_fmt(emp)}{diff}")
    if out:
        _write_table(out, rows)
    return 0


def cmd_capacity(scn: Scenario, x=None, out=None) -> int:
    if x is None:
        x = scn.capacity_x
    if x is None:
        print("error: no rate vector given (capacity.x in the scenario or --x)",
              file=sys.stderr)
        return 2
    x = np.asarray(x, dtype=float)
    family = enumerate_feasible(scn.topology, scn.channel, scn.topology.phy)
    ok, alpha = setspace.capacity_contains(x, family)
    print(f"x = [{', '.join(_fmt(v) for v in x)}]")
    print(f"inside capacity region: {'yes' if ok else 'no'}")
    rows = [("x", str(i), float(v), None) for i, v in enumerate(x)]
    if ok:
        for d, a in zip(family.sets, alpha):
            if a > 1e-12:
                print(f"alpha{d} = {_fmt(a)}")
            rows.append(("alpha", str(d), float(a), None))
    if out:
        _write_table(out, rows)
    return 0


def cmd_adapt(scn: Scenario, out=None) -> int:
    if scn.adapt is None:
        print("error: scenario has no 'adapt' section", file=sys.stderr)
        return 2
    family = None
    try:
        family = enumerate_feasible(scn.topology, scn.channel, scn.topology.phy)
        ok, _ = setspace.capacity_contains(scn.adapt.target_rates, family)
        if not ok:
            print("warning: target rates are outside the capacity region; "
                  "expect growing queues")
    except EnumerationCapError:
        pass
    trace = adapt_mod.adapt_run(scn.topology, scn.channel, scn.topology.phy,
                                scn.adapt, scn.sim)
    k = scn.topology.n_links
    n = len(trace.times)
    tail = max(1, n // 4)
    mean_service = trace.tau_emp[-tail:].mean(axis=0)
    slopes = trace.queue_slopes()
    print(f"updates: {n}, final-quarter mean service rate: "
          f"{[float(_fmt(v)) for v in mean_service]}")
    print(f"virtual-queue slopes (trailing half): "
          f"{[float(_fmt(v)) for v in slopes]}")
    if out:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            header = ["update", "t"]
            header += [f"r_{i}" for i in range(k)]
            header += [f"lambda_{i}" for i in range(k)]
            header += [f"tau_{i}" for i in range(k)]
            header += [f"queue_{i}" for i in range(k)]
            w.writerow(header)
            for j in range(n):
                row = [str(j + 1), _fmt(trace.times[j])]
                row += [_fmt(v) for v in trace.r[j]]
                row += [_fmt(v) for v in trace.lambda_emp[j]]
                row += [_fmt(v) for v in trace.tau_emp[j]]
                row += [_fmt(v) for v in trace.queues[j]]
                w.writerow(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csma-sic",
        description="CSMA-SIC analytical engine and protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "simulate", "capacity", "adapt"):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario YAML file")
        p.add_argument("--out", help="write a CSV result table to this path")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--horizon", type=float,
                       help="override the simulation horizon")
        if name == "capacity":
            p.add_argument("--x", help="comma-separated per-link rate vector")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None or args.horizon is not None:
        sim_cfg = sim.SimConfig(
            horizon=args.horizon if args.horizon is not None else scn.sim.horizon,
            seed=args.seed if args.seed is not None else scn.sim.seed,
            params=scn.sim.params,
            warmup=None if args.horizon is not None else scn.sim.warmup,
        )
        scn = replace(scn, sim=sim_cfg)
    try:
        if args.command == "analyze":
            return cmd_analyze(scn, out=args.out)
        if args.command == "simulate":
            return cmd_simulate(scn, out=args.out)
        if args.command == "capacity":
            x = None
            if args.x is not None:
                x = [float(v) for v in args.x.split(",")]
            return cmd_capacity(scn, x=x, out=args.out)
        if args.command == "adapt":
            return cmd_adapt(scn, out=args.out)
    except (EnumerationCapError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
