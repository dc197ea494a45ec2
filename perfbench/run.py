"""csma-sic benchmark: CLI wall times and simulator events/s per workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One process runs the four public CLI commands (``csma_sic.cli.main``:
analyze, capacity, simulate, adapt) in-process, one after another, on one
workload's scenario: a closed loop with a single caller. The topologies
are fixed so that the amount of work does not change with ``--seed``; the
seed picks the simulation seeds handed to the commands: round r of a run
with seed n uses ``1000 * n + r``, so a run's medians pool several
trajectories.

Workloads (why each was chosen):

* ``triangle``: ``scenarios/triangle.yaml`` (K=3, 7 states) at a horizon
  of 5e3 and 50 adaptation updates. Almost no exact-engine work and every
  simulator event hits the feasibility cache, so it isolates the
  per-event overhead of the simulator.
* ``dense-k25``: 25 links, every node in range of every other, at a
  horizon of 50 while the feasibility cache is still cold. K is above
  the enumeration cap, so analyze and capacity must refuse (exit code 2)
  and only the simulator runs; most events miss the feasibility cache.
* ``spread-k12``: 12 links over a wide area, 1,826 of the 4,096 subsets
  feasible. Every command enumerates the family again, so the exact
  engine dominates.

With ``--trace 0`` the run measures for ``--seconds``: as many rounds of
the scenario set-up and the four commands as fit (at least one). The
set-up and any command under a tenth of a second are repeated within a
round. Each timing metric is a median over the run's calls, in
host-normalised seconds: a call's wall time times ``REF_S`` over the mean
time of a fixed pure-Python reference kernel (``reference_kernel``:
objects, a dict and a sort, like the program's own hot paths) timed just
before and just after the call. On a shared host a co-tenant can slow
every instruction by a third to a half for seconds to minutes at a time
(process CPU time moves with wall time, steal time stays 0); the call
and the kernels around it slow alike, so their ratio repeats from run to
run where the wall time does not. Over fourteen 30 s windows of one
recording, the median wall time of a command spread (IQR / median) by
0.16-0.28 and the median ratio by 0.02-0.04. A change to the program
moves the ratio as it moves the wall time, since the kernel does not
depend on the program. The raw medians go to the metadata. The workloads
are sized so that one command lasts well under a second and a run holds
a dozen or more calls of each.

With ``--trace 1`` the run makes one untraced round, then one round with
every layer wrapped in spans (see ``spans.py``), and reports per-layer
counts and self times, in wall seconds, and the tracing overhead.

Correctness is checked outside the timed sections: exit codes (the
refusal on dense-k25 counts as success), CSV digests identical across
calls and across runs of the same source and seed in this checkout,
scenario files that regenerate to the committed bytes, global balance of
the exact law, LP verdicts, and on triangle the simulator's TV distance
to the exact law. The last stdout line is the JSON result; run metadata
goes to the line before it and to ``perfbench/out/``.

``--smoke`` runs every workload in both modes at tiny horizons in child
processes and checks that each metric named in ``BENCHMARK.json`` is
emitted with its unit.
"""

import os
import sys

# One caller, no thread pools: pin BLAS/OpenMP before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

COMMANDS = ("analyze", "capacity", "simulate", "adapt")
REFUSED_ABOVE_CAP = ("analyze", "capacity")

# workload -> (scenario path relative to the root, generated by gen.py,
#              TV bound of simulate against the exact law or None).
# Triangle's TV at its horizon of 5e3 measured 0.0132 median, 0.0286 99th
# percentile and 0.0309 max over 300 simulation seeds.
WORKLOADS = {
    "triangle": ("perfbench/scenarios/triangle.yaml", True, 0.06),
    "dense-k25": ("perfbench/scenarios/dense-k25.yaml", True, None),
    "spread-k12": ("perfbench/scenarios/spread-k12.yaml", True, None),
}
SMOKE_HORIZON = {"triangle": 500.0, "dense-k25": 10.0, "spread-k12": 10.0}

FAST_S = 0.1            # commands faster than this repeat within a round
SETUP_MIN_REPS = 3      # set-up repetitions per round, and at least
SETUP_BUDGET_S = 0.1    # this many seconds of them
SEED_STRIDE = 1000      # round r of seed n simulates with seed 1000 n + r
BALANCE_TOL = 1e-10     # acceptance criterion 1 of the test suite
DECODE_CASES = 500      # benchmarks/bench_decode.py's case mix
DECODE_BUDGET_S = 0.5
REF_ITEMS = 3000        # one reference kernel call: about 2 ms when quiet
REF_S = 0.002           # host-normalised seconds = wall s * REF_S / kernel s

clock = time.perf_counter


def import_package():
    """Import csma_sic from this checkout's ``src``; fail if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "csma_sic", "__init__.py")):
        raise SystemExit(f"error: no csma_sic package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import csma_sic
    import csma_sic.cli  # noqa: F401  (not imported by the package itself)
    return csma_sic


# -- bookkeeping ----------------------------------------------------------

class Ledger:
    """Operations attempted and failed; a failure is never fatal."""

    def __init__(self):
        self.ops = []

    def check(self, label, ok, detail=""):
        self.ops.append({"op": label, "ok": bool(ok), "detail": str(detail)})
        if not ok:
            print(f"FAILED {label}: {detail}", file=sys.stderr)
        return ok

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(not op["ok"] for op in self.ops)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest():
    """sha256 over the package sources, so results name what they measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "csma_sic")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """Commit of the checkout read from ``.git`` directly, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def load_digest_store(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def save_digest_store(path, store):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


# -- the program under test ----------------------------------------------

class Probes:
    """Minimal hooks that stay on in untraced runs.

    ``Simulator.advance`` is wrapped to count events (expiries plus
    completions) and the host seconds spent advancing; ``_analyze_rows``
    is wrapped to keep analyze's family and law for the balance check.
    Each costs one extra call per wrapped call.
    """

    def __init__(self):
        from csma_sic import cli, sim
        self.events = 0
        self.advance_s = 0.0
        self.analysis = None
        advance = sim.Simulator.advance
        analyze_rows = cli._analyze_rows

        def count(simulator):
            done = int(simulator.completed_total.sum())
            return 2 * done + bin(simulator.active).count("1")

        def counted_advance(simulator, until):
            before = count(simulator)
            t0 = clock()
            advance(simulator, until)
            self.advance_s += clock() - t0
            self.events += count(simulator) - before

        def kept_analyze_rows(scn):
            result = analyze_rows(scn)
            self.analysis = (scn, *result[:3])
            return result

        sim.Simulator.advance = counted_advance
        cli._analyze_rows = kept_analyze_rows

    def reset(self):
        self.events = 0
        self.advance_s = 0.0


@dataclass
class Call:
    """One command call: its outcome, wall time and simulator events."""

    seed: int
    rc: int
    seconds: float
    stdout: str
    stderr: str
    digest: str        # sha256 of the CSV, None if none was written
    csv_text: str
    events: int
    advance_s: float
    factor: float = 1.0  # host-normalised seconds per wall second


def run_command(pkg, probes, command, path, seed, horizon, csv_path):
    """One ``csma-sic <command>`` call through ``cli.main``, timed."""
    argv = [command, path, "--seed", str(seed), "--out", csv_path]
    if horizon is not None:
        argv += ["--horizon", repr(horizon)]
    if os.path.exists(csv_path):
        os.remove(csv_path)
    out, err = io.StringIO(), io.StringIO()
    probes.reset()
    gc.collect()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(argv)
    seconds = clock() - t0
    digest = csv_text = None
    if os.path.exists(csv_path):
        digest = sha256_file(csv_path)
        with open(csv_path) as fh:
            csv_text = fh.read()
    return Call(seed, rc, seconds, out.getvalue(), err.getvalue(), digest,
                csv_text, probes.events, probes.advance_s)


class _Item:
    __slots__ = ("idx", "key")

    def __init__(self, idx, key):
        self.idx = idx
        self.key = key


def reference_kernel():
    """Fixed pure-Python work that measures the host's current speed.

    A tight arithmetic loop slows less under a co-tenant than the
    program does; allocation, dict traffic and a sort track it closely.
    """
    items = [_Item(i, i * 2654435761 % 4294967296) for i in range(REF_ITEMS)]
    seen = {}
    for it in items:
        seen[it.key & 1023] = seen.get(it.key & 1023, 0) + it.idx
    items.sort(key=lambda it: it.key)
    return sum(it.idx for it in items[::3]) + len(seen)


def time_kernel():
    t0 = clock()
    reference_kernel()
    return clock() - t0


class HostSpeed:
    """The reference kernel timed between consecutive timed calls."""

    def __init__(self):
        self.last = time_kernel()

    def factor(self):
        """``REF_S`` over the mean kernel time just before and just after
        the timed call that has just ended."""
        before, self.last = self.last, time_kernel()
        return 2 * REF_S / (before + self.last)


def run_round(pkg, probes, ledger, calls, path, seed, horizon, csv_path,
              exact, repeat_fast=True, tracer=None, host=None):
    """The four commands once each, fast ones repeated; returns seconds.

    Traced rounds call each command exactly once so that counts are exact.
    With ``host`` (a ``HostSpeed``), each call gets its host factor.
    """
    t_round = 0.0
    for command in COMMANDS:
        spent = 0.0
        while True:
            if tracer is not None:
                tracer.current = command
            try:
                call = run_command(pkg, probes, command, path, seed, horizon,
                                   csv_path)
            except Exception:  # a crash is a failed operation, not the end
                ledger.check(f"{command} ran", False,
                             traceback.format_exc(limit=3))
                break
            calls[command].append(call)
            validate_call(ledger, command, call, exact)
            if host is not None:
                call.factor = host.factor()
            spent += call.seconds
            if not repeat_fast or spent >= FAST_S:
                break
        t_round += spent
    return t_round


def validate_call(ledger, command, call, exact):
    if exact or command not in REFUSED_ABOVE_CAP:
        ledger.check(f"{command} exit 0 with CSV",
                     call.rc == 0 and call.digest is not None,
                     f"rc={call.rc} {call.stderr.strip()[:200]}")
    else:
        ledger.check(f"{command} refuses above the enumeration cap",
                     call.rc == 2 and "enumeration cap" in call.stderr
                     and call.digest is None,
                     f"rc={call.rc} {call.stderr.strip()[:200]}")


def check_digests(ledger, calls, store, key_prefix):
    """Same source and seed must give byte-identical CSVs, in and across runs."""
    digests = {}
    for command in COMMANDS:
        by_seed = {}
        for c in calls[command]:
            by_seed.setdefault(c.seed, []).append(c.digest)
        for seed, seen in sorted(by_seed.items()):
            label = f"{command} --seed {seed}"
            if len(seen) > 1:
                ledger.check(f"{label} CSV identical across calls",
                             len(set(seen)) == 1, sorted(set(map(str, seen))))
            digest = seen[0]
            digests[f"{command}:{seed}"] = digest
            key = f"{key_prefix}:{seed}:{command}"
            if key in store:
                ledger.check(f"{label} CSV identical to earlier runs",
                             store[key] == digest, f"{store[key]} != {digest}")
            else:
                store[key] = digest
    return digests


def tv_from_simulate_csv(text):
    """Total variation between the exact and simulated occupancy columns."""
    total = 0.0
    for row in csv.DictReader(io.StringIO(text)):
        if row["quantity"] == "occupancy":
            ana = float(row["analytical"]) if row["analytical"] else 0.0
            total += abs(ana - float(row["empirical"]))
    return 0.5 * total


def correctness_checks(pkg, ledger, name, path, probes, calls, tv_bound):
    """Checks outside the timed sections; each is one operation."""
    import numpy as np
    import gen
    from csma_sic import ctmc, setspace

    _, generated, _ = WORKLOADS[name]
    family = probes.analysis[1] if probes.analysis else None
    if generated:
        with open(path) as fh:
            committed = fh.read()
        ledger.check("scenario regenerates to the committed bytes",
                     gen.scenario_yaml(name, family=family) == committed)
    scn = pkg.scenario.load_scenario(path)
    k = scn.topology.n_links
    full = setspace.LinkSet((1 << k) - 1, k)
    ledger.check("full link set is infeasible",
                 not setspace.is_independent(full, scn.topology, scn.channel))
    if probes.analysis is not None:
        a_scn, family, q, tau = probes.analysis
        resid = ctmc.global_balance_residual(family, a_scn.params, q)
        ledger.check("global balance residual of analyze's law",
                     resid <= BALANCE_TOL, f"{resid:.3e}")
        inside, _ = setspace.capacity_contains(0.9 * np.asarray(tau), family)
        ledger.check("LP puts 0.9 tau inside", inside)
        ones, _ = setspace.capacity_contains(np.ones(k), family)
        ledger.check("LP puts the all-ones vector outside", not ones)
        verdicts = {c.stdout.count("inside capacity region: yes")
                    for c in calls["capacity"]}
        ledger.check("capacity says the scenario's x is inside",
                     verdicts == {1}, verdicts)
    tvs = []
    if tv_bound is not None:
        for c in calls["simulate"]:
            label = f"simulate --seed {c.seed} TV to the exact law"
            if c.csv_text is None:
                ledger.check(label, False, "no CSV")
                continue
            tvs.append(tv_from_simulate_csv(c.csv_text))
            ledger.check(label, tvs[-1] <= tv_bound,
                         f"{tvs[-1]:.5f} (bound {tv_bound})")
    return tvs


# -- set-up and the decode microbenchmark --------------------------------

def setup_once(pkg, path, seed):
    """What every command pays before its engine runs."""
    scn = pkg.scenario.load_scenario(path)
    pkg.sim.Simulator(scn.topology, scn.channel, phy=scn.topology.phy,
                      params=scn.sim.params, seed=seed)


def time_setup(pkg, path, seed, min_reps, budget_s, host=None):
    """Set-up wall times, and their host factors if ``host`` is given."""
    times, factors = [], []
    while len(times) < min_reps or sum(times) < budget_s:
        gc.collect()
        t0 = clock()
        setup_once(pkg, path, seed)
        times.append(clock() - t0)
        factors.append(host.factor() if host is not None else 1.0)
    return times, factors


def decode_ns_per_call(ledger):
    """``bench_decode.py``'s case mix through ``_kernel.decode_feasible``."""
    import numpy as np
    from csma_sic import _decode_py, _kernel

    rng = np.random.default_rng(0)
    cases = []
    for _ in range(DECODE_CASES):
        m = int(rng.integers(2, 13))
        cases.append((rng.uniform(0.01, 5.0, size=m).tolist(), list(range(m)),
                      int(rng.integers(0, m)), [1.5] * m,
                      float(rng.uniform(0.0, 0.3)),
                      float(rng.choice([1.0, 0.8, 0.5]))))
    fn = _kernel.decode_feasible
    ledger.check("decode kernel agrees with the Python reference",
                 all(fn(*c) == _decode_py.decode_feasible(*c) for c in cases))
    passes = []
    t_start = clock()
    while len(passes) < 5 or clock() - t_start < DECODE_BUDGET_S:
        t0 = clock()
        for c in cases:
            fn(*c)
        passes.append((clock() - t0) / len(cases))
    return statistics.median(passes) * 1e9


# -- tracing --------------------------------------------------------------

def install_tracer(pkg):
    """Wrap the public functions of every layer where their callers look."""
    from csma_sic import (adapt, cli, ctmc, localstate, phy, scenario,
                          setspace, sim)
    from spans import Tracer

    t = Tracer()
    family_size = lambda args, fam: (len(fam), fam.width)  # noqa: E731
    t.patch(scenario, "load_scenario", "scenario.load_scenario", keep=True)
    t.patch(cli, "load_scenario", "scenario.load_scenario", keep=True)
    t.patch(scenario, "build_channel_matrix", "phy.build_channel_matrix")
    t.patch(setspace, "sic_decodable", "phy.sic_decodable")
    t.patch(phy, "decode_feasible", "phy.decode_feasible")
    t.patch(localstate, "decode_feasible", "phy.decode_feasible")
    t.patch(cli, "enumerate_feasible", "setspace.enumerate_feasible",
            keep=True, observe=family_size)
    for owner in (setspace, sim, scenario):
        t.patch(owner, "is_independent", "setspace.is_independent")
    t.patch(setspace, "capacity_contains", "setspace.capacity_contains",
            keep=True)
    t.patch(setspace, "eta", "setspace.eta")
    t.patch(ctmc, "eta", "setspace.eta")
    t.patch(ctmc, "reachable_subfamily", "setspace.reachable_subfamily")
    t.patch(ctmc, "steady_state", "ctmc.steady_state", keep=True)
    t.patch(ctmc, "expected_throughput", "ctmc.expected_throughput",
            keep=True)
    t.patch(sim, "check_all_feasible", "localstate.check_all_feasible")
    for kind in ("rts", "cts", "ack"):
        t.patch(localstate, f"overhear_{kind}", f"localstate.overhear_{kind}")
    t.patch(sim.Simulator, "__init__", "sim.Simulator.__init__", keep=True)
    t.patch(sim.Simulator, "advance", "sim.Simulator.advance", keep=True)
    t.patch(sim, "run", "sim.run", keep=True,
            observe=lambda args, stats: len(stats.occupancy))
    t.patch(adapt, "adapt_run", "adapt.adapt_run", keep=True,
            observe=lambda args, trace: len(trace.times))
    t.patch(cli, "main", "cli.main", keep=True)
    for command in COMMANDS:
        t.patch(cli, f"cmd_{command}", f"cli.cmd_{command}", keep=True)
    return t


LAYERS = ("scenario", "phy", "setspace", "ctmc", "localstate", "sim", "adapt",
          "cli")


def per_layer_metrics(t, traced_calls, setup_spans, overhead, decode_ns):
    """Per-layer counts, rates and self times of one traced round."""
    def names(prefix):
        return {n for (_, n, _) in t.agg if n.startswith(prefix + ".")}

    def median(values):
        return statistics.median(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(t.select(names=names(layer),
                                             command=c).self_time
                                    for c in COMMANDS), "s")

    m["scenario.load_s"] = (median(t.select(name="scenario.load_scenario")
                                   .durations), "s")
    m["decode.ns_per_call"] = (decode_ns, "ns")
    for c in COMMANDS:
        m[f"decode.calls.{c}"] = (t.select(name="phy.decode_feasible",
                                           command=c).calls, "count")

    indep = [t.select(name="setspace.is_independent", command=c)
             for c in COMMANDS]
    indep_calls = sum(a.calls for a in indep)
    m["setspace.is_independent.calls"] = (indep_calls, "count")
    m["setspace.is_independent.us_per_call"] = (
        ratio(sum(a.total for a in indep), indep_calls) * 1e6, "us")
    sizes = t.noted("setspace.enumerate_feasible")
    enum_s = t.select(name="setspace.enumerate_feasible").total
    m["setspace.enumerate.subsets_per_s"] = (
        ratio(sum(1 << w for _, w in sizes), enum_s), "1/s")
    size, width = sizes[0] if sizes else (0, 0)
    m["setspace.family_size"] = (size, "count")
    m["setspace.feasible_share"] = (ratio(size, 1 << width) if sizes else 0.0,
                                    "ratio")
    m["setspace.lp_s"] = (median(t.select(name="setspace.capacity_contains")
                                 .durations), "s")

    steady = t.select(name="ctmc.steady_state")
    m["ctmc.steady_state_s"] = (median(steady.durations), "s")
    m["ctmc.steady_state.calls"] = (steady.calls, "count")
    m["ctmc.eta.calls"] = (t.select(name="setspace.eta").calls, "count")

    feas = t.select(name="localstate.check_all_feasible", command="simulate")
    m["localstate.check_all_feasible.calls"] = (feas.calls, "count")
    m["localstate.check_all_feasible.us_per_call"] = (
        ratio(feas.total, feas.calls) * 1e6, "us")
    over = t.select(names={"localstate.overhear_rts", "localstate.overhear_cts",
                           "localstate.overhear_ack"}, command="simulate")
    m["localstate.overhear.calls"] = (over.calls, "count")
    m["localstate.overhear.self_s"] = (over.self_time, "s")

    events = sum(c.events for c in traced_calls["simulate"])
    advance = t.select(name="sim.Simulator.advance", command="simulate")
    m["sim.init_s"] = (median(setup_spans), "s")
    m["sim.events"] = (events, "count")
    m["sim.events_per_s"] = (ratio(events, advance.total), "1/s")
    misses = t.select(name="localstate.check_all_feasible", command="simulate",
                      parent="sim.Simulator.advance").calls
    m["sim.feas_checks_per_event"] = (ratio(misses, events), "ratio")
    m["sim.is_independent.calls"] = (
        t.select(name="setspace.is_independent", command="simulate",
                 parent="sim.Simulator.advance").calls, "count")
    states = t.noted("sim.run", command="simulate")
    m["sim.distinct_states"] = (states[0] if states else 0, "count")
    m["sim.advance.self_s"] = (advance.self_time, "s")

    run = t.select(name="adapt.adapt_run", command="adapt")
    epochs = t.noted("adapt.adapt_run", command="adapt")
    m["adapt.epochs_per_s"] = (ratio(sum(epochs), run.total), "1/s")
    m["adapt.sim_share"] = (
        ratio(t.select(name="sim.Simulator.advance", command="adapt").total,
              run.total), "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    return m


# -- one benchmark run ----------------------------------------------------

def bench(args):
    pkg = import_package()
    import numpy
    import scipy
    scenario = pkg.scenario

    name = args.workload
    rel_path, _, tv_bound = WORKLOADS[name]
    path = os.path.join(ROOT, rel_path)
    if not os.path.isfile(path):
        raise SystemExit(f"error: scenario file {rel_path} is missing")
    os.makedirs(os.path.join(OUT, "csv"), exist_ok=True)
    csv_path = os.path.join(OUT, "csv", f"{name}.csv")
    horizon = SMOKE_HORIZON[name] if args.smoke else None
    load_before = os.getloadavg()
    ledger = Ledger()
    probes = Probes()
    # Move the imported modules out of the collector's reach, so that the
    # collection before each timed call costs microseconds, not 25 ms.
    gc.freeze()

    scn = scenario.load_scenario(path)
    exact = scn.topology.n_links <= pkg.setspace.ENUMERATION_CAP
    run_horizon = horizon if horizon is not None else scn.sim.horizon
    src_sha = source_digest()
    store_path = os.path.join(OUT, "digests.json")
    store = load_digest_store(store_path)
    key_prefix = f"{src_sha}:{sha256_file(path)}:{name}:{run_horizon!r}"
    seeds = (SEED_STRIDE * args.seed + r for r in range(SEED_STRIDE))
    calls = {c: [] for c in COMMANDS}
    meta = {}

    if not args.trace:
        # Start a round only if one more fits in --seconds, judged by the
        # mean round so far, so a run overshoots by at most one slow round.
        setup, setup_factors = [], []
        host = HostSpeed()
        t_start = clock()
        rounds = 0
        while rounds == 0 or (clock() - t_start) * (rounds + 1) / rounds \
                <= args.seconds:
            seed = next(seeds)
            times, factors = time_setup(pkg, path, seed, SETUP_MIN_REPS,
                                        SETUP_BUDGET_S, host)
            setup += times
            setup_factors += factors
            run_round(pkg, probes, ledger, calls, path, seed, horizon,
                      csv_path, exact, host=host)
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # A command that crashed every time has no samples; the run is
        # then already marked incorrect, and 0 keeps the line valid JSON.
        def med(values):
            return statistics.median(values) if values else 0.0

        def timings(norm):
            """Medians in host-normalised units, or in wall units."""
            def k(factor):
                return factor if norm else 1.0
            return {
                "setup_s": med([t * k(f)
                                for t, f in zip(setup, setup_factors)]),
                **{f"{c}_s": med([x.seconds * k(x.factor) for x in calls[c]])
                   for c in COMMANDS},
                "sim_events_per_s": med([x.events / x.advance_s / k(x.factor)
                                         for x in calls["simulate"]
                                         if x.advance_s > 0]),
            }

        metrics = {k: (v, "1/s" if k.endswith("_per_s") else "s")
                   for k, v in timings(True).items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        meta.update({"setup_reps": len(setup),
                     "raw_medians": timings(False),
                     "median_host_factor": med(setup_factors + [
                         x.factor for c in COMMANDS for x in calls[c]])})
    else:
        seed = next(seeds)
        untraced = run_round(pkg, probes, ledger, calls, path, seed,
                             horizon, csv_path, exact, repeat_fast=False)
        tracer = install_tracer(pkg)
        try:
            tracer.current = "setup"
            time_setup(pkg, path, seed, SETUP_MIN_REPS, 0.0)
            setup_spans = tracer.select(name="sim.Simulator.__init__",
                                        command="setup").durations
            traced_calls = {c: [] for c in COMMANDS}
            traced = run_round(pkg, probes, ledger, traced_calls, path,
                               seed, horizon, csv_path, exact,
                               repeat_fast=False, tracer=tracer)
        finally:
            tracer.uninstall()
        for c in COMMANDS:
            calls[c].extend(traced_calls[c])
        rounds = 2
        overhead = traced / untraced - 1.0 if untraced > 0 else 0.0
        meta["trace_overhead"] = overhead
        decode_ns = decode_ns_per_call(ledger)
        metrics = per_layer_metrics(tracer, traced_calls, setup_spans,
                                    overhead, decode_ns)
        tracer.dump(os.path.join(OUT, f"spans-{name}-seed{args.seed}.json"))

    digests = check_digests(ledger, calls, store, key_prefix)
    tv = correctness_checks(pkg, ledger, name, path, probes, calls,
                            None if args.smoke else tv_bound)
    save_digest_store(store_path, store)

    meta.update({
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "horizon": run_horizon,
        "links": scn.topology.n_links, "rounds": rounds,
        "sim_seeds": sorted({c.seed for c in calls["simulate"]}),
        "calls": {c: len(calls[c]) for c in COMMANDS},
        "git_commit": git_commit(), "source_sha256": src_sha,
        "nproc": len(os.sched_getaffinity(0)), "threads": thread_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "kernel_backend": pkg.KERNEL_BACKEND,
        "machine": platform.machine(), "csv_sha256": digests,
        "simulate_tv": tv,
        "fail_rate": ledger.failed / ledger.attempted,
        "checks": ledger.ops,
    })
    return ledger, metrics, meta


def result_line(ledger, metrics):
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- smoke mode -----------------------------------------------------------

def smoke():
    """Every workload in both modes at tiny horizons, in child processes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   w["name"], "--seed", "1", "--seconds", "1", "--trace",
                   str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
            else:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                differ = sorted(set(got.items()) ^ set(wanted[trace].items()))
                if differ:
                    problems.append(f"metric/unit pairs not as in "
                                    f"BENCHMARK.json: {differ}")
                if not res["correct"]:
                    problems.append(f"{res['failed']} of {res['attempted']} "
                                    f"operations failed: {proc.stderr[-500:]}")
            print(f"{w['name']:<11} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons; without --workload, self-test "
                             "every workload and metric")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required")
        return smoke()
    ledger, metrics, meta = bench(args)
    os.makedirs(OUT, exist_ok=True)
    result = result_line(ledger, metrics)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "meta": meta}, fh, indent=1)
    for k, (v, u) in metrics.items():
        print(f"{k:<42} {v:>16.6g} {u}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
