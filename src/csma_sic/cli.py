"""Command-line front end: analyze | simulate | capacity | adapt.

Each command reads a scenario file, runs the corresponding engine, prints a
human-readable summary, and optionally writes a CSV result table.  Output
is locale-independent and byte-stable for a fixed scenario and seed.  Each
number is formatted once, to 12 significant digits, for stdout and the CSV,
and a set of links prints as its ids, ``{0,2}``.
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


def _set_names(masks, width: int) -> list:
    """Each link bitmask in ``masks`` as its set of link ids, ``{0,2}``."""
    ids = [str(i) for i in range(width)]
    names = []
    for bits in masks:
        parts = []
        while bits:
            low = bits & -bits
            parts.append(ids[low.bit_length() - 1])
            bits ^= low
        names.append("{" + ",".join(parts) + "}")
    return names


def _rows(quantity: str, idents, ana, emp=None) -> list:
    """CSV rows of one quantity, each float formatted once.  A None value,
    or a difference with one, is an empty cell; ``emp`` None is all None."""
    return [(quantity, i, "" if a is None else f"{a:.12g}",
             "" if e is None else f"{e:.12g}",
             "" if a is None or e is None else f"{abs(a - e):.12g}")
            for i, a, e in zip(idents, ana, emp or [None] * len(ana))]


def _write(lines, out, rows,
           header=("quantity", "id", "analytical", "empirical", "abs_diff")):
    """``lines`` to stdout in one write, then ``rows`` to the CSV ``out``."""
    sys.stdout.write("".join(lines))
    if out:
        with open(out, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _analyze_rows(scn: Scenario):
    family = enumerate_feasible(scn.topology, scn.channel)
    q = ctmc.steady_state(family, scn.params)
    tau = q.throughput()
    rows = _rows("Q", _set_names(family.sets.tolist(), family.width),
                 q.probs.tolist())
    rows += _rows("tau", map(str, range(family.width)), tau.tolist())
    return family, q, tau, rows


def cmd_analyze(scn: Scenario, out=None) -> int:
    family, q, tau, rows = _analyze_rows(scn)
    n = len(family)
    _write([f"feasible sets: {n}\n"]
           + [f"Q{name} = {p}\n" for _, name, p, _, _ in rows[:n]]
           + [f"tau[{i}] = {t}\n" for _, i, t, _, _ in rows[n:]], out, rows)
    return 0


def _family(scn: Scenario):
    """The scenario's feasible family, or None above the enumeration cap."""
    try:
        return enumerate_feasible(scn.topology, scn.channel)
    except EnumerationCapError:
        return None


def cmd_simulate(scn: Scenario, out=None) -> int:
    # one family seeds the simulator and gives the analytical column
    family = _family(scn)
    stats = sim.run(scn.topology, scn.channel, scn.sim, family=family)
    emp_tau = sim.empirical_throughput(stats)
    occ = stats.occupancy_fractions()
    k = scn.topology.n_links
    if family is None:
        tau, ana_occ = [None] * k, {}
    else:
        q = ctmc.steady_state(family, scn.params)
        tau = q.throughput().tolist()
        ana_occ = dict(zip(family.sets.tolist(), q.probs.tolist()))
    masks = sorted(occ.keys() | ana_occ.keys())
    rows = _rows("occupancy", _set_names(masks, k),
                 [ana_occ.get(bits) for bits in masks],
                 [occ.get(bits, 0.0) for bits in masks])
    rows += _rows("tau", map(str, range(k)), tau, emp_tau.tolist())
    _write([f"{quantity} {ident}:{f' analytical={a}' if a else ''} "
            f"empirical={e}{f' |diff|={d}' if d else ''}\n"
            for quantity, ident, a, e, d in rows], out, rows)
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
    rows = _rows("x", map(str, range(len(x))), x.tolist())
    lines = [f"x = [{', '.join(row[2] for row in rows)}]\n",
             f"inside capacity region: {'yes' if ok else 'no'}\n"]
    if ok:
        alpha = alpha.tolist()
        alpha_rows = _rows("alpha",
                           _set_names(family.sets.tolist(), family.width),
                           alpha)
        lines += [f"alpha{row[1]} = {row[2]}\n"
                  for a, row in zip(alpha, alpha_rows) if a > 1e-12]
        rows += alpha_rows
    _write(lines, out, rows)
    return 0


def cmd_adapt(scn: Scenario, out=None) -> int:
    if scn.adapt is None:
        print("error: scenario has no 'adapt' section", file=sys.stderr)
        return 2
    family = _family(scn)
    if family is not None:
        # the region holds busy-time fractions: a link served at rate x
        # is busy x / mu of the time
        ok, _ = setspace.capacity_contains(
            scn.adapt.target_rates / scn.params.mu, family)
        if not ok:
            print("warning: target rates are outside the capacity region; "
                  "expect growing queues")
    trace = adapt_mod.adapt_run(scn.topology, scn.channel, scn.adapt,
                                mu=scn.params.mu, seed=scn.sim.seed,
                                family=family)
    k, n = scn.topology.n_links, len(trace.times)
    tail = trace.tau_emp[-max(1, n // 4):].mean(axis=0).tolist()
    slopes = trace.queue_slopes().tolist()
    lines = [f"updates: {n}, final-quarter mean service rate: "
             f"{[float(f'{v:.12g}') for v in tail]}\n"
             f"virtual-queue slopes (trailing half): "
             f"{[float(f'{v:.12g}') for v in slopes]}\n"]
    table = np.hstack([trace.times[:, None], trace.r, trace.lambda_emp,
                       trace.tau_emp, trace.queues]).tolist()
    rows = [[str(j), *[f"{v:.12g}" for v in row]]
            for j, row in enumerate(table, 1)]
    _write(lines, out, rows, ["update", "t"] + [
        f"{name}_{i}" for name in ("r", "lambda", "tau", "queue")
        for i in range(k)])
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
