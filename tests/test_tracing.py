"""The benchmark's tracer (``perfbench/tracing.py``) must find every name it
wraps in the package, and one small run of every traced stage must reach
each of them; otherwise a per-layer metric reads null."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter, so the installed wrappers never leak into
# other tests
SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
import qcmatch
import qcmatch.cli  # noqa: F401 - imports every module, as the benchmark does
from tracing import WRAPPED, Tracer

tracer = Tracer()
tracer.install(qcmatch)
from qcmatch import lpmatch, mcsim, oracle
from qcmatch.instance import generate_instance, make_graph
from qcmatch.transform import TransformParams

params = TransformParams()
two_round = make_graph(2, 2, [(0, 0, 1.0, 0.6), (0, 1, 0.8, 0.9), (1, 0, 0.5, 1.0), (1, 1, 1.2, 0.4)])
heavy_prune = generate_instance("hard", na=4, nb=4, density=0.4, seed=403)
branches = []
for g in (two_round, heavy_prune):
    x = lpmatch.solve_lp_match(g).x
    lpmatch.check_feasibility(g, x, "exhaustive")
    for alg in ("greedy", "alg1", "apx"):
        res = mcsim.run_batch(g, x, alg, params, 500, 1)
    branches.append(res.branch)
x = lpmatch.solve_lp_match(two_round).x
oracle.exact_event_probabilities(two_round, x, 1.0, oracle.conditional_bundles(two_round, "lemma7"))
oracle.expected_opt_exact(two_round)
summary = tracer.summary()
print(json.dumps({
    "absent": sorted(tracer.absent),
    "unrecorded": sorted({name for _, _, name, _ in WRAPPED if summary.get(name, {}).get("count", 0) < 1}),
    "branches": branches,
    "counters": tracer.counters,
}))
"""


def test_tracer_finds_and_records_every_wrapped_name():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["branches"] == ["two-round", "heavy-prune"]
    assert got["absent"] == []
    assert got["unrecorded"] == []
    # counters read from the wrapped calls' arguments and results: round 1
    # of the one two-round run draws its 500 trials in one chunk
    assert got["counters"]["mcsim.chunk_trials"] == 500
    assert got["counters"]["oracle.joint_entries"] > 0
    assert got["counters"]["permdist.support_max"] > 0
