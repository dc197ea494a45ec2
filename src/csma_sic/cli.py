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


def _name(bits: int, width: int) -> str:
    """A link bitmask printed as its set of link ids, ``{0,2}``."""
    return str(setspace.LinkSet(bits, width))


def _write_table(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["quantity", "id", "analytical", "empirical", "abs_diff"])
        for quantity, ident, ana, emp in rows:
            diff = None if ana is None or emp is None else abs(ana - emp)
            w.writerow([quantity, ident, _fmt(ana), _fmt(emp), _fmt(diff)])


def _analyze_rows(scn: Scenario):
    family = enumerate_feasible(scn.topology, scn.channel)
    q = ctmc.steady_state(family, scn.params)
    tau = q.throughput()
    rows = [("Q", _name(bits, family.width), p, None)
            for bits, p in zip(family.sets, q.probs.tolist())]
    rows += [("tau", str(i), t, None) for i, t in enumerate(tau)]
    return family, q, tau, rows


def cmd_analyze(scn: Scenario, out=None) -> int:
    family, q, tau, rows = _analyze_rows(scn)
    print(f"feasible sets: {len(family)}")
    for _, name, p, _ in rows[:len(family)]:
        print(f"Q{name} = {_fmt(p)}")
    for i, t in enumerate(tau):
        print(f"tau[{i}] = {_fmt(t)}")
    if out:
        _write_table(out, rows)
    return 0


def cmd_simulate(scn: Scenario, out=None) -> int:
    stats = sim.run(scn.topology, scn.channel, scn.sim)
    emp_tau = sim.empirical_throughput(stats)
    occ = stats.occupancy_fractions()
    try:
        family = enumerate_feasible(scn.topology, scn.channel)
        q = ctmc.steady_state(family, scn.params)
        tau = q.throughput()
        ana_occ = dict(zip(family.sets, q.probs.tolist()))
    except EnumerationCapError:
        tau, ana_occ = None, {}

    width = scn.topology.n_links
    rows = []
    for bits in sorted(set(occ) | set(ana_occ)):
        rows.append(("occupancy", _name(bits, width), ana_occ.get(bits),
                     occ.get(bits, 0.0)))
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
    family = enumerate_feasible(scn.topology, scn.channel)
    ok, alpha = setspace.capacity_contains(x, family)
    print(f"x = [{', '.join(_fmt(v) for v in x)}]")
    print(f"inside capacity region: {'yes' if ok else 'no'}")
    rows = [("x", str(i), float(v), None) for i, v in enumerate(x)]
    if ok:
        for bits, a in zip(family.sets, alpha):
            name = _name(bits, family.width)
            if a > 1e-12:
                print(f"alpha{name} = {_fmt(a)}")
            rows.append(("alpha", name, float(a), None))
    if out:
        _write_table(out, rows)
    return 0


def cmd_adapt(scn: Scenario, out=None) -> int:
    if scn.adapt is None:
        print("error: scenario has no 'adapt' section", file=sys.stderr)
        return 2
    try:
        family = enumerate_feasible(scn.topology, scn.channel)
        # the region holds busy-time fractions: a link served at rate x
        # is busy x / mu of the time
        ok, _ = setspace.capacity_contains(
            scn.adapt.target_rates / scn.params.mu, family)
        if not ok:
            print("warning: target rates are outside the capacity region; "
                  "expect growing queues")
    except EnumerationCapError:
        pass
    trace = adapt_mod.adapt_run(scn.topology, scn.channel, scn.adapt, scn.sim)
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
            names = ("r", "lambda", "tau", "queue")
            w.writerow(["update", "t"]
                       + [f"{name}_{i}" for name in names for i in range(k)])
            series = (trace.r, trace.lambda_emp, trace.tau_emp, trace.queues)
            for j in range(n):
                w.writerow([str(j + 1), _fmt(trace.times[j])]
                           + [_fmt(v) for a in series for v in a[j]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csma-sic",
        description="CSMA-SIC analytical engine and protocol simulator",
    )
    parser.add_argument("command",
                        choices=("analyze", "simulate", "capacity", "adapt"))
    parser.add_argument("scenario", help="path to a scenario YAML file")
    parser.add_argument("--out", help="write a CSV result table to this path")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--horizon", type=float,
                        help="override the simulation horizon")
    parser.add_argument("--x", help="capacity: comma-separated per-link rates")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.x is not None and args.command != "capacity":
        parser.error("--x applies to the capacity command only")
    try:
        scn = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # the seed is checked first, so it is named first when both are bad
        if args.seed is not None:
            scn = replace(scn, sim=replace(scn.sim, seed=args.seed))
        if args.horizon is not None:
            scn = replace(scn, sim=replace(scn.sim, horizon=args.horizon,
                                           warmup=None))
        if args.command == "analyze":
            return cmd_analyze(scn, out=args.out)
        if args.command == "simulate":
            return cmd_simulate(scn, out=args.out)
        if args.command == "capacity":
            x = (None if args.x is None
                 else [float(v) for v in args.x.split(",")])
            return cmd_capacity(scn, x=x, out=args.out)
        return cmd_adapt(scn, out=args.out)
    except (EnumerationCapError, ScenarioError, ValueError, OSError) as exc:
        # OSError: --out names a missing directory or a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
