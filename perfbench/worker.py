"""One benchmark worker: a fresh process that runs one workload.

``run.py`` starts this file as a child process, once per set-up probe and
once per measured run.  The worker caps its own address space at
``MEM_CAP_MB`` first, then
imports the package from ``src/`` of the checkout, generates the workload's
instances and runs the stages.  Every operation's output is checked; a
failed operation is counted and the run goes on.  The result is one JSON
object on the last line of standard output.

Usage (normally through ``run.py``, which also sets the environment)::

    PYTHONPATH=src python3 perfbench/worker.py --workload c08 --seed 1 \
        --seconds 50 --mode run --passes 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e
APX_RATIO = 0.6335  # 1 - 1/e + 0.0014, the two-branch guarantee
Z = 4.0             # tolerance of every statistical check, in standard errors

#: address-space cap of every worker; c08's 16-edge oracle probe needs
#: ~11 GB and must surface as a MemoryError under it
MEM_CAP_MB = 1536

# Per workload: trials per run_batch call; how many solve passes a round
# makes (0: one pass before the rounds and one after them, as lp-unit's
# LPs take about 12 s a pass); how many times the CLI chain runs (the
# second run, after the rounds, is compared byte for byte with the first);
# and the seconds that the probes and the memory oracle take after the
# rounds.  A solve pass of c08 lasts under 0.2 s, too short to time alone.
WORKLOADS = {
    "c08": {"trials": {"alg1": 5_000, "apx": 1_000, "greedy": 400_000},
            "solve_passes": 2, "chains": 2, "tail_s": 6.0},
    "lp-unit": {"trials": {"alg1": 60_000, "apx": 60_000, "greedy": 1_200_000},
                "solve_passes": 0, "chains": 1, "tail_s": 0.5},
}
# Rounds repeat while the rest of the run is expected to fit in --seconds,
# counted from the worker's start, and at least MIN_ROUNDS run.
MIN_ROUNDS = 3

# c08's heavy-prune instances are small; in every workload they run apx at
# this many trials per call, so that each sample is long enough to time
HEAVY_PRUNE_TRIALS = {"apx": 100_000}

STAGE_IDS = {"alg1": 1, "apx": 2, "greedy": 3, "chain": 4, "probe": 5}

# c08 instance whose oracle runs once, untimed, before peak_rss_mb is read:
# 12 edges, joint tables of about 90 MB, 2 s
RSS_ORACLE_C08 = 4

# the c10 acceptance instance, run through the CLI chain
CHAIN_GEN = ["--model", "uniform", "--na", "4", "--nb", "4", "--density", "0.6", "--seed", "17"]
CHAIN_TRIALS = 5_000


@dataclass
class Inst:
    label: str
    graph: object
    gen_seed: int
    stages: frozenset
    trials: dict = field(default_factory=dict)
    x: tuple = ()
    lp: float = 0.0
    opt: float = 0.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def op(self, what: str, fn):
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted, the run goes on
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what, detail or "check failed")
        return ok

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {detail}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _generate(instance, model, kw, seed, accept):
    """Generate from ``seed``, moving the seed by 1000 until ``accept``."""
    while True:
        g = instance.generate_instance(model, **kw, seed=seed)
        if accept(g):
            return g, seed
        seed += 1000


def c08_instances(instance):
    """The 30 (model, size, seed) specs of acceptance criterion c08:
    weighted, |E| <= 16, complete/uniform/star/hard."""
    specs = []
    for i in range(6):
        specs.append(("complete", dict(na=2 + i % 3, nb=2 + (i + 1) % 3), 100 + i))
    for i in range(10):
        specs.append(("uniform", dict(na=4 + i % 3, nb=4 + (i + 1) % 3, density=0.45), 200 + i))
    for i in range(4):
        specs.append(("star", dict(na=3 + i, nb=1), 300 + i))
    for i in range(10):
        specs.append(("hard", dict(na=4 + i % 3, nb=4 + i % 3, density=0.4), 400 + i))
    out = []
    for idx, (model, kw, seed) in enumerate(specs):
        g, used = _generate(instance, model, kw, seed, lambda g: 1 <= len(g.edges) <= 16)
        out.append((f"c08#{idx}:{model}", g, used))
    return out


# c08 instances that take the heavy-prune branch of apx; lp-unit carries
# them so that it reports that metric too
HEAVY_PRUNE_C08 = (23, 27, 29)


def build_workload(name: str, instance) -> list[Inst]:
    """Instances of a workload with the stages each one enters.

    Instance specs are fixed, as c08's are; ``--seed`` drives everything
    drawn at run time (Monte-Carlo seeds, the CLI chain's run seeds).
    """
    c08 = c08_instances(instance)
    mc = frozenset({"alg1", "apx", "greedy"})
    insts: list[Inst] = []
    if name == "c08":
        for idx, (label, g, seed) in enumerate(c08):
            # the exact oracle on the 19 instances with at most 8 edges; the
            # larger ones take 1-10 s each
            stages = mc | ({"oracle"} if len(g.edges) <= 8 else set())
            trials = HEAVY_PRUNE_TRIALS if idx in HEAVY_PRUNE_C08 else {}
            insts.append(Inst(label, g, seed, frozenset(stages), dict(trials)))
    elif name == "lp-unit":
        unit = (1.0, 1.0)
        specs = [
            ("unit-star-10", "star", dict(na=10, w_range=unit), 500, mc | {"oracle"}),
            ("unit-star-11", "star", dict(na=11, w_range=unit), 501, mc | {"oracle"}),
            ("unit-star-12", "star", dict(na=12, w_range=unit), 502, mc),
            ("unit-uniform-20x20", "uniform", dict(na=20, nb=20, density=0.3, w_range=unit), 503, frozenset()),
            ("weighted-uniform-60x60", "uniform", dict(na=60, nb=60, density=0.1), 504, frozenset()),
        ]
        for label, model, kw, seed, stages in specs:
            insts.append(Inst(label, instance.generate_instance(model, **kw, seed=seed), seed, frozenset(stages)))
        for idx in HEAVY_PRUNE_C08:
            label, g, seed = c08[idx]
            insts.append(Inst(label, g, seed, frozenset({"apx"}), dict(HEAVY_PRUNE_TRIALS)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return insts


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, args, pkg, tracer):
        self.args = args
        self.pkg = pkg
        self.tracer = tracer
        self.cfg = WORKLOADS[args.workload]
        self.tally = Tally()
        self.params = pkg.transform.TransformParams()
        self.metrics: dict[str, float] = {}
        # stage -> instance label -> one wall time per call
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.stage_s: dict[str, float] = {}
        self.passes: dict[str, int] = {}
        self.round_s: list[float] = []
        self.branch: dict[str, str] = {}
        self.last_alg1: dict[str, object] = {}
        self.two_round_trials = 0
        self.probes: list[dict] = []
        self.chain_steps: dict[str, float] = {}
        self.chain_s: list[float] = []

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def quiet(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def mc_seed(self, stage: str, round_no: int, idx: int) -> int:
        return self.args.seed * 1_000_000 + STAGE_IDS[stage] * 100_000 + round_no * 1_000 + idx

    def trials(self, alg: str, inst: Inst) -> int:
        return inst.trials.get(alg, self.cfg["trials"][alg])

    def timed(self, stage: str, inst: Inst, fn):
        """One checked operation; its wall time is kept as one sample."""
        t0 = time.perf_counter()
        out = self.tally.op(f"{stage} {inst.label}", fn)
        dt = time.perf_counter() - t0
        if out is not None:
            self.samples.setdefault(stage, {}).setdefault(inst.label, []).append(dt)
        self.stage_s[stage] = self.stage_s.get(stage, 0.0) + dt
        return out

    def total_s(self, stage: str, labels=None) -> float:
        """Total time of a stage's successful calls, over all rounds."""
        got = self.samples.get(stage, {})
        return sum(sum(got[lab]) for lab in (got if labels is None else labels))

    def per_pass_s(self, stage: str) -> float | None:
        n = self.passes.get(stage, 0)
        return self.total_s(stage) / n if n else None

    # -- LP ------------------------------------------------------------------

    def stage_solve(self, insts):
        lpmatch = self.pkg.lpmatch
        self.passes["solve"] = self.passes.get("solve", 0) + 1
        for inst in insts:
            sol = self.timed("solve", inst, lambda: lpmatch.solve_lp_match(inst.graph))
            if sol is not None:
                self.check_solution(inst, sol)
                inst.x, inst.lp = sol.x, sol.objective

    def check_solution(self, inst, sol):
        rep = self.tally.op(
            f"check {inst.label}",
            lambda: self.pkg.lpmatch.check_feasibility(inst.graph, sol.x, "exhaustive"),
        )
        if rep is not None:
            self.tally.check(
                f"feasible {inst.label}", rep.feasible,
                f"worst violation {rep.worst_violation:.3e} at {rep.witness}",
            )
        obj = sum(e.w * x for e, x in zip(inst.graph.edges, sol.x))
        self.tally.check(
            f"objective {inst.label}", abs(obj - sol.objective) <= 1e-7 * max(1.0, obj),
            f"objective {sol.objective} but x.w = {obj}",
        )

    # -- Monte Carlo -----------------------------------------------------------

    def stage_mc(self, alg: str, insts, round_no: int):
        mcsim = self.pkg.mcsim
        for idx, inst in enumerate(insts):
            if alg not in inst.stages or not inst.x:
                continue
            x = None if alg == "greedy" else inst.x
            seed = self.mc_seed(alg, round_no, idx)
            trials = self.trials(alg, inst)
            res = self.timed(alg, inst, lambda: mcsim.run_batch(inst.graph, x, alg, self.params, trials, seed, threads=1))
            if res is None:
                continue
            if alg == "apx":
                self.branch[inst.label] = res.branch
                if res.branch == "two-round":
                    self.two_round_trials += trials
            if alg == "alg1":
                self.last_alg1[inst.label] = res
            with self.quiet():
                self.check_mc(alg, inst, res)

    def throughput(self, alg: str, insts, branch: str | None = None) -> float | None:
        """Total trials over the total wall time of their calls."""
        got = self.samples.get(alg, {})
        picked = [i for i in insts if i.label in got and (branch is None or self.branch.get(i.label) == branch)]
        if not picked:
            return None
        trials = sum(self.trials(alg, i) * len(got[i.label]) for i in picked)
        return trials / self.total_s(alg, [i.label for i in picked])

    def check_mc(self, alg: str, inst: Inst, res):
        """Guarantee checks: alg1 >= (1-1/e) LP, apx >= 0.6335 LP, greedy >=
        OPT/2, and no algorithm above OPT <= LP; all within 4 stderr."""
        # a mean over n trials resolves the expectation only to about
        # 3 W / n when every trial returned the same weight (stderr 0)
        slack = 3.0 * sum(e.w for e in inst.graph.edges) / res.trials
        what = f"{alg} {inst.label} mean {res.mean:.6g} +- {res.stderr:.3g}"
        self.tally.check(f"{alg} upper {inst.label}", lower_ok(inst.opt, res.stderr, res.mean, slack),
                         f"{what} above OPT {inst.opt:.6g}")
        lower = {"alg1": ONE_MINUS_INV_E * inst.lp, "apx": APX_RATIO * inst.lp, "greedy": 0.5 * inst.opt}[alg]
        self.tally.check(f"{alg} lower {inst.label}", lower_ok(res.mean, res.stderr, lower, slack),
                         f"{what} below {lower:.6g}")

    # -- oracle ----------------------------------------------------------------

    def oracle_events(self, g, x):
        oracle = self.pkg.oracle
        # the CLI's `--events all` bundles
        conds = oracle.conditional_bundles(g, "lemma7") + oracle.conditional_bundles(g, "lemma8")
        rep = oracle.exact_event_probabilities(g, x, 1.0, conds)
        return rep, oracle.expected_opt_exact(g)

    def stage_oracle(self, insts):
        self.passes["oracle"] = self.passes.get("oracle", 0) + 1
        for inst in insts:
            if "oracle" not in inst.stages or not inst.x:
                continue
            got = self.timed("oracle", inst, lambda: self.oracle_events(inst.graph, inst.x))
            if got is not None:
                with self.quiet():
                    self.check_oracle(inst, *got)

    def check_oracle(self, inst, rep, opt):
        lp = inst.lp
        self.tally.check(
            f"oracle guarantee {inst.label}", rep.expected_weight >= ONE_MINUS_INV_E * lp - 1e-9,
            f"exact alg1 weight {rep.expected_weight} below (1-1/e) LP {ONE_MINUS_INV_E * lp}",
        )
        self.tally.check(f"oracle opt {inst.label}", rep.expected_weight - 1e-9 <= opt <= lp + 1e-9,
                         f"OPT {opt} outside [{rep.expected_weight}, LP {lp}]")
        bad = [v for v in rep.conditionals.values() if v is not None and not (-1e-9 <= v <= 1 + 1e-9)]
        self.tally.check(f"oracle conditionals {inst.label}", not bad, f"probabilities out of [0,1]: {bad[:3]}")
        res = self.last_alg1.get(inst.label)
        if self.tally.check(f"oracle has alg1 run {inst.label}", res is not None, "no alg1 result"):
            slack = 3.0 * sum(e.w for e in inst.graph.edges) / res.trials
            self.tally.check(
                f"alg1 vs oracle {inst.label}", near_ok(res.mean, res.stderr, rep.expected_weight, slack),
                f"alg1 mean {res.mean} +- {res.stderr} vs exact {rep.expected_weight}",
            )

    def self_test(self):
        """The checks must reject a perturbed mean."""
        res = next((r for r in self.last_alg1.values() if r.stderr > 0), None)
        if not self.tally.check("self-test input", res is not None, "no alg1 result with a spread"):
            return
        m, se = res.mean, res.stderr
        self.tally.check("self-test near", near_ok(m, se, m) and not near_ok(m + 5 * Z * se, se, m),
                         "near-check accepted a mean 20 stderr away")
        self.tally.check("self-test lower", lower_ok(m, se, m) and not lower_ok(m - 5 * Z * se, se, m),
                         "lower-bound check accepted a mean 20 stderr below")

    # -- probes at known cliffs --------------------------------------------------

    def run_probes(self):
        """Known failures: counted apart, never in a throughput or time sum."""
        if self.args.workload != "c08":
            return
        pkg = self.pkg
        params = self.params

        def probe(name, fn):
            t0 = time.perf_counter()
            try:
                detail = fn()
                failed = detail is not None
            except Exception as exc:  # noqa: BLE001 - a probe reports any failure
                failed, detail = True, f"{type(exc).__name__}: {exc}"
            self.probes.append({"name": name, "failed": failed, "detail": detail,
                                "seconds": round(time.perf_counter() - t0, 3)})

        c08_7 = self.insts[7]

        def oracle_7():
            self.oracle_events(c08_7.graph, c08_7.x)
            return None

        def alg1_3x8():
            g = pkg.instance.generate_instance("complete", na=3, nb=8, seed=800)
            sol = pkg.lpmatch.solve_lp_match(g)
            res = pkg.mcsim.run_batch(g, sol.x, "alg1", params, 1_000, self.mc_seed("probe", 0, 1), threads=1)
            if not lower_ok(res.mean, res.stderr, ONE_MINUS_INV_E * sol.objective):
                return f"alg1 mean {res.mean} below (1-1/e) LP"
            return None

        def apx_70_sure():
            # 70 disjoint edges with x = p = 1: each edge is matched with
            # probability 1 - e^-2 over the two rounds
            g = pkg.instance.make_graph(70, 70, [(i, i, 1.0, 1.0) for i in range(70)])
            res = pkg.mcsim.run_batch(g, [1.0] * 70, "apx", params, 200, self.mc_seed("probe", 0, 2), threads=1)
            exact = 70 * (1.0 - math.exp(-2.0))
            if not near_ok(res.mean, res.stderr, exact):
                return f"mean {res.mean:.4f} +- {res.stderr:.4f} vs exact {exact:.4f}, z = {(res.mean - exact) / res.stderr:.1f}"
            return None

        with self.quiet():
            probe("oracle c08#7 (16 edges) under the memory cap", oracle_7)
            probe("alg1 on complete 3x8", alg1_3x8)
            probe("apx on 70 disjoint sure edges", apx_70_sure)

    # -- CLI chain -----------------------------------------------------------------

    def chain_argvs(self, d: Path):
        seed = str(self.mc_seed("chain", 0, 0))
        inst, sol, orc, rep = (str(d / n) for n in ("i.json", "s.json", "o.json", "sum.json"))
        runs = [str(d / f"r_{a}.json") for a in ("alg1", "apx", "greedy")]
        steps = [("gen", ["gen", *CHAIN_GEN, "--out", inst]),
                 ("solve", ["solve", "--instance", inst, "--out", sol, "--check", "exhaustive"])]
        for alg, out in zip(("alg1", "apx", "greedy"), runs):
            steps.append(("run", ["run", "--alg", alg, "--instance", inst, "--solution", sol,
                                  "--trials", str(CHAIN_TRIALS), "--seed", seed, "--out", out]))
        steps.append(("oracle", ["oracle", "--instance", inst, "--solution", sol, "--events", "all", "--out", orc]))
        steps.append(("report", ["report", "--solution", sol, "--run", *runs, "--oracle", orc, "--out", rep]))
        return steps

    def chain_dir(self) -> Path:
        return OUT_DIR / f"chain-{os.getpid()}"

    def stage_chain(self, run_no: int):
        """gen -> solve -> run alg1/apx/greedy -> oracle -> report, each step a
        child ``python -m qcmatch.cli`` process."""
        out_dir = self.chain_dir() / str(run_no)
        out_dir.mkdir(parents=True, exist_ok=True)
        total = 0.0
        for step, argv in self.chain_argvs(out_dir):
            t0 = time.perf_counter()
            done = self.tally.op(
                f"cli {step}",
                lambda: subprocess.run([sys.executable, "-m", "qcmatch.cli", *argv], cwd=ROOT,
                                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120),
            )
            dt = time.perf_counter() - t0
            total += dt
            self.chain_steps[step] = self.chain_steps.get(step, 0.0) + dt
            if done is not None:
                self.tally.check(f"cli {step} exit", done.returncode == 0,
                                 f"exit {done.returncode}: {done.stderr.decode()[-300:]}")
        self.chain_s.append(total)

    def check_chains_identical(self):
        """The two chains' output files must be byte-identical."""
        first, second = self.chain_dir() / "0", self.chain_dir() / "1"
        names = sorted(p.name for p in first.iterdir())
        same = names == sorted(p.name for p in second.iterdir()) and all(
            (first / n).read_bytes() == (second / n).read_bytes() for n in names
        )
        self.tally.check("cli chains byte-identical", same, f"outputs differ among {names}")

    # -- per-layer extras (traced run only) --------------------------------------

    def permdist_fixed_targets(self):
        """Permutation-distribution build time at k = 5, 6, 7 on fixed
        targets: one A vertex with k edges at its LP optimum."""
        pkg = self.pkg
        out = {}
        with self.quiet():
            for k in (5, 6, 7):
                g = pkg.instance.generate_instance("complete", na=1, nb=k, seed=700 + k)
                x = pkg.lpmatch.solve_lp_match(g).x
                times = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    pkg.permdist.build_proportional_distribution(g, 0, x)
                    times.append(time.perf_counter() - t0)
                out[f"permdist.build_s.k{k}"] = statistics.median(times)
        return out

    def cli_import_s(self) -> float:
        code = "import time; t = time.perf_counter(); import qcmatch.cli; print(time.perf_counter() - t)"
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        return float(done.stdout.strip().splitlines()[-1])

    # -- the run ------------------------------------------------------------------

    def rss_oracle(self):
        """One untimed oracle call on a 12-edge c08 instance, so that
        peak_rss_mb shows the joint tables, not only the imports."""
        if self.args.workload != "c08":
            return
        inst = self.insts[RSS_ORACLE_C08]
        with self.quiet():
            self.tally.op(f"rss oracle {inst.label}", lambda: self.oracle_events(inst.graph, inst.x))

    def run(self, insts, t_start: float):
        """The CLI chain, interleaved rounds of solve, alg1, apx, greedy and
        oracle, the CLI chain again, then the probes.  Rounds repeat while
        the rest of the run is expected to end within --seconds of
        ``t_start``.  Every metric totals its calls over all rounds, so a
        slow spell of the machine weighs by its share of the run."""
        self.insts = insts
        with self.quiet():
            for inst in insts:
                if inst.stages:
                    inst.opt = self.pkg.oracle.expected_opt_exact(inst.graph)
        with self.span("stage.chain"):
            self.stage_chain(0)
        per_round = self.cfg["solve_passes"]
        if not per_round:
            with self.span("stage.solve"):
                self.stage_solve(insts)
        round_s: list[float] = []
        while True:
            t0 = time.perf_counter()
            round_no = len(round_s)
            with self.span("round"):
                with self.span("stage.solve"):
                    for _ in range(1 if per_round and self.args.passes else per_round):
                        self.stage_solve(insts)
                for alg in ("alg1", "apx", "greedy"):
                    with self.span(f"stage.{alg}"):
                        self.stage_mc(alg, insts, round_no)
                with self.span("stage.oracle"):
                    self.stage_oracle(insts)
            round_s.append(time.perf_counter() - t0)
            if self.args.passes:
                break
            tail = (self.cfg["chains"] - 1) * self.chain_s[0] + self.cfg["tail_s"]
            tail += 0.0 if per_round else self.total_s("solve")
            ahead = time.perf_counter() - t_start + statistics.mean(round_s) + tail
            if len(round_s) >= MIN_ROUNDS and ahead > self.args.seconds:
                break
        self.round_s = round_s
        if not per_round and not self.args.passes:
            with self.span("stage.solve"):
                self.stage_solve(insts)
        self.self_test()
        if self.cfg["chains"] == 2:
            with self.span("stage.chain"):
                self.stage_chain(1)
            self.tally.op("cli chains compared", self.check_chains_identical)
        shutil.rmtree(self.chain_dir(), ignore_errors=True)
        self.metrics["pipeline_s"] = statistics.mean(self.chain_s)
        self.rss_oracle()
        # read before the probes: the oracle probe fills the address cap
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.run_probes()

        self.metrics["solve_s"] = self.per_pass_s("solve")
        self.metrics["oracle_s"] = self.per_pass_s("oracle")
        self.metrics["alg1_trials_per_s"] = self.throughput("alg1", insts)
        self.metrics["apx_two_round_trials_per_s"] = self.throughput("apx", insts, "two-round")
        self.metrics["apx_heavy_prune_trials_per_s"] = self.throughput("apx", insts, "heavy-prune")
        self.metrics["greedy_trials_per_s"] = self.throughput("greedy", insts)


def lower_ok(mean: float, stderr: float, bound: float, slack: float = 0.0) -> bool:
    """``mean`` is not below ``bound`` by more than 4 stderr (+ slack)."""
    return mean >= bound - Z * stderr - slack - 1e-9


def near_ok(mean: float, stderr: float, exact: float, slack: float = 0.0) -> bool:
    """``mean`` lies within 4 stderr (+ slack) of ``exact``."""
    return abs(mean - exact) <= Z * stderr + slack + 1e-9


def layer_metrics(bench: Bench, tracer) -> dict:
    """Per-layer metrics from the traced run; ``None`` marks a counter whose
    wrapped name no longer exists."""
    summ = tracer.summary()

    def total(name):
        return None if name in tracer.absent else summ.get(name, {}).get("total_s", 0.0)

    def count(name):
        return None if name in tracer.absent else summ.get(name, {}).get("count", 0)

    def counter(key, source):
        return None if source in tracer.absent else tracer.counters[key]

    def ratio(num, den):
        return None if num is None or not den else num / den

    build = "permdist.build_proportional_distribution"
    support_for = "engine.DistributionCache.support_for"
    round2_for = "mcsim._ApxContext.round2_for"
    chunk = "mcsim._run_proposal_chunk"
    support_calls = count(support_for)
    layers = {
        "lpmatch.solve_s": total("lpmatch.solve_lp_match"),
        "lpmatch.highs_calls": count("lpmatch.linprog"),
        "lpmatch.highs_s": total("lpmatch.linprog"),
        "lpmatch.rows": counter("lpmatch.rows", "lpmatch.solve_lp_match"),
        "lpmatch.rhs_s": total("lpmatch.constraint_rhs"),
        "lpmatch.check_exhaustive_s": total("lpmatch.check_feasibility"),
        "permdist.build_calls": count(build),
        "permdist.build_s": total(build),
        "permdist.support_max": counter("permdist.support_max", build),
        "engine.compile_round_calls": count("engine._compile_round"),
        "engine.compile_round_s": total("engine._compile_round"),
        "engine.dist_cache_hit_ratio": ratio(
            None if support_calls is None else support_calls - tracer.count_children(build, support_for),
            support_calls),
        "mcsim.compile_arrays_calls": count("mcsim._compile_arrays"),
        "mcsim.compile_arrays_s": total("mcsim._compile_arrays"),
        "mcsim.round2_compiles_per_1k_trials": ratio(
            None if round2_for in tracer.absent else tracer.count_children("mcsim._compile_arrays", round2_for),
            bench.two_round_trials / 1000.0),
        "mcsim.chunk_calls": count(chunk),
        "mcsim.chunk_s": total(chunk),
        "mcsim.trials_per_chunk_call": ratio(counter("mcsim.chunk_trials", chunk), count(chunk)),
        "mcsim.greedy_chunk_s": total("mcsim._greedy_chunk"),
        "oracle.events_s": total("oracle.exact_event_probabilities"),
        "oracle.joint_build_s": total("oracle._build_joint"),
        "oracle.joint_entries": counter("oracle.joint_entries", "oracle._build_joint"),
        "oracle.expected_opt_s": total("oracle.expected_opt_exact"),
    }
    for step in ("gen", "solve", "run", "oracle", "report"):  # mean over the chains
        layers[f"cli.{step}_s"] = ratio(bench.chain_steps.get(step), len(bench.chain_s))
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--passes", type=int, choices=(0, 1), default=0,
                    help="1: exactly one round (traced comparison); 0: rounds while they fit in --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    cap = MEM_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import numpy
    import scipy
    import qcmatch
    import qcmatch.cli  # noqa: F401 - pulls in every module, numpy and scipy

    src = (ROOT / "src").resolve()
    if not Path(qcmatch.__file__).resolve().is_relative_to(src):
        print(f"qcmatch imported from {qcmatch.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer  # this file's directory is on sys.path

        tracer = Tracer()
        tracer.install(qcmatch)

    t0 = time.perf_counter()
    with (tracer.span("instance.generate") if tracer else contextlib.nullcontext()):
        insts = build_workload(args.workload, qcmatch.instance)
    generate_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"generate_s": generate_s}), flush=True)
        os._exit(0)

    bench = Bench(args, qcmatch, tracer)
    bench.run(insts, t_start)
    out = {
        "metrics": bench.metrics,
        "stage_s": bench.stage_s,
        "samples": bench.samples,
        "round_s": bench.round_s,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "errors": bench.tally.errors,
        "probes": bench.probes,
        "instances": [{"label": i.label, "gen_seed": i.gen_seed, "edges": len(i.graph.edges),
                       "stages": sorted(i.stages)} for i in insts],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        "generate_s": generate_s,
        "mem_cap_mb": MEM_CAP_MB,
    }
    if tracer:
        layers = layer_metrics(bench, tracer)
        layers.update(bench.permdist_fixed_targets())
        layers["cli.import_s"] = bench.cli_import_s()
        layers["instance.generate_s"] = generate_s
        out["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.to_json()))
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
