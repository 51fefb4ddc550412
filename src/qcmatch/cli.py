"""Command-line entry point.

Subcommands wire instance generation, LP solving, algorithm runs, oracle
queries, and verification into reproducible file-based experiments.  Every
source of randomness takes an explicit ``--seed``; re-running a command
with identical arguments reproduces its output files byte for byte.

Exit status: 0 on success, 1 when a check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import mcsim, oracle, verify
from .engine import ALGORITHMS
from .instance import GENERATOR_MODELS, InstanceError, generate_instance, load_instance, save_instance
from .lpmatch import check_feasibility, solution_from_json, solution_to_json, solve_lp_match
from .transform import TransformParams

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _read_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _load_graph(path: str):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {path}")
    return load_instance(p.read_text())


def cmd_gen(args) -> int:
    graph = generate_instance(
        args.model,
        na=args.na,
        nb=args.nb,
        density=args.density,
        w_range=tuple(args.w_range),
        p_range=tuple(args.p_range),
        seed=args.seed,
    )
    Path(args.out).write_text(save_instance(graph) + "\n")
    print(f"wrote {args.out}: {graph.a_count}x{graph.b_count}, {len(graph.edges)} edges")
    return 0


def cmd_solve(args) -> int:
    graph = _load_graph(args.instance)
    sol = solve_lp_match(graph)
    _write_json(args.out, solution_to_json(sol))
    print(f"wrote {args.out}: objective {sol.objective:.9g}")
    if args.check:
        report = check_feasibility(graph, sol.x, mode=args.check)
        print(
            f"feasibility ({args.check}): worst violation {report.worst_violation:.3e}"
        )
        if not report.feasible:
            print(f"INFEASIBLE at {report.witness}", file=sys.stderr)
            return CHECK_FAILURE
    return 0


def cmd_run(args) -> int:
    graph = _load_graph(args.instance)
    params = TransformParams(sigma=args.sigma, tau=args.tau, lam=getattr(args, "lambda"))
    x = None
    lp_objective = None
    if args.alg != "greedy":
        if not args.solution:
            raise ValueError(f"--solution is required for --alg {args.alg}")
        sol = solution_from_json(_read_json(args.solution))
        if len(sol.x) != len(graph.edges):
            raise ValueError("solution length does not match instance")
        x = sol.x
        lp_objective = sol.objective
    res = mcsim.run_batch(
        graph,
        x,
        args.alg,
        params,
        args.trials,
        args.seed,
        threads=args.threads,
    )
    payload = {
        "algorithm": args.alg,
        "trials": args.trials,
        "seed": args.seed,
        "params": {"sigma": params.sigma, "tau": params.tau, "lambda": params.lam},
        "mean_weight": res.mean,
        "stderr": res.stderr,
        "edge_match_freq": list(res.edge_match_freq),
        "branch": res.branch,
        "lp_objective": lp_objective,
        "ratio_vs_lp": (res.mean / lp_objective) if lp_objective else None,
    }
    _write_json(args.out, payload)
    print(
        f"wrote {args.out}: mean {res.mean:.6f} +- {res.stderr:.6f}"
        + (f", branch {res.branch}" if res.branch else "")
    )
    return 0


_EVENT_CHOICES = ("lemma7", "lemma8", "all")


def cmd_oracle(args) -> int:
    graph = _load_graph(args.instance)
    if args.solution:
        sol = solution_from_json(_read_json(args.solution))
        if len(sol.x) != len(graph.edges):
            raise ValueError("solution length does not match instance")
        x = sol.x
    else:
        x = solve_lp_match(graph).x
    conds = []
    if args.events in ("lemma7", "all"):
        conds += oracle.conditional_bundles(graph, "lemma7")
    if args.events in ("lemma8", "all"):
        conds += oracle.conditional_bundles(graph, "lemma8")
    report = oracle.exact_event_probabilities(graph, x, args.sigma, conds)
    payload = oracle.report_to_json(report)
    payload["sigma"] = args.sigma
    if len(graph.edges) <= oracle.EXPECTED_OPT_EDGE_CAP:
        payload["expected_opt"] = oracle.expected_opt_exact(graph)
    text = json.dumps(payload, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    if args.dist_instance:
        return _probe_distribution(args)
    report = verify.run_suite(args.suite, grid_step=args.grid_step, seed=args.seed)
    text = json.dumps(report.to_json(), indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    for rec in report.records:
        mark = "pass" if rec.passed else "FAIL"
        print(f"[{mark}] {rec.name}: worst {rec.worst:.3e} @ {rec.where}", file=sys.stderr)
    return 0 if report.passed else CHECK_FAILURE


def _probe_distribution(args) -> int:
    """Print one vertex's proportional permutation distribution: its
    support, the exact first-realized marginals it induces, and their worst
    deviation from the targets."""
    from .permdist import build_proportional_distribution, first_realized_marginals

    graph = _load_graph(args.dist_instance)
    if args.dist_solution:
        x = solution_from_json(_read_json(args.dist_solution)).x
    else:
        x = solve_lp_match(graph).x
    v = args.dist_vertex
    if not (0 <= v < graph.a_count):
        raise ValueError(f"vertex {v} out of range [0, {graph.a_count})")
    dist = build_proportional_distribution(graph, v, x)
    marginals = first_realized_marginals(dist, graph)
    payload = {
        "vertex": v,
        "support": [{"permutation": list(perm), "probability": q} for perm, q in dist.support],
        "targets": {str(e): t for e, t in sorted(dist.targets.items())},
        "first_realized_marginals": {str(e): m for e, m in sorted(marginals.items())},
        "support_size": len(dist.support),
        "max_marginal_error": max((abs(marginals[e] - t) for e, t in dist.targets.items()), default=0.0),
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_report(args) -> int:
    sol = _read_json(args.solution)
    objective = float(sol["objective"])
    opt = None
    if args.oracle:
        opt = _read_json(args.oracle).get("expected_opt")
    rows = []
    for run_path in args.run:
        run = _read_json(run_path)
        mean = float(run["mean_weight"])
        row = {
            "algorithm": run["algorithm"],
            "mean_weight": mean,
            "stderr": float(run["stderr"]),
            "ratio_vs_lp": mean / objective if objective > 0 else None,
            "ratio_vs_opt": (mean / opt) if opt else None,
            "branch": run.get("branch"),
        }
        rows.append(row)
    payload = {"lp_objective": objective, "expected_opt": opt, "rows": rows}
    _write_json(args.out, payload)

    headers = ["algorithm", "mean", "stderr", "vs LP", "vs OPT", "branch"]
    table = [headers]
    for r in rows:
        table.append(
            [
                r["algorithm"],
                f"{r['mean_weight']:.6f}",
                f"{r['stderr']:.6f}",
                f"{r['ratio_vs_lp']:.4f}" if r["ratio_vs_lp"] is not None else "-",
                f"{r['ratio_vs_opt']:.4f}" if r["ratio_vs_opt"] is not None else "-",
                r["branch"] or "-",
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcmatch",
        description="stochastic bipartite matching in the query-commit model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--model", choices=GENERATOR_MODELS, required=True)
    p.add_argument("--na", type=int, default=2)
    p.add_argument("--nb", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--w-range", type=float, nargs=2, default=(0.1, 2.0), metavar=("LO", "HI"))
    p.add_argument("--p-range", type=float, nargs=2, default=(0.1, 1.0), metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the relaxation")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check", choices=("exhaustive", "prefix"))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("run", help="Monte Carlo algorithm runs")
    p.add_argument("--alg", choices=ALGORITHMS, required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--solution")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tau", type=float, default=0.8723)
    p.add_argument("--lambda", type=float, default=0.1837)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="exact event probabilities")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument(
        "--events",
        choices=_EVENT_CHOICES,
        default="all",
        help="conditional bundles to report; all = lemma7 + lemma8",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="numeric verification suites")
    p.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dist-instance", help="probe: print a vertex's permutation distribution")
    p.add_argument("--dist-solution")
    p.add_argument("--dist-vertex", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="join solution, runs, and oracle output")
    p.add_argument("--solution", required=True)
    p.add_argument("--run", nargs="+", required=True)
    p.add_argument("--oracle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
