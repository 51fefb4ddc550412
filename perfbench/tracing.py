"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the benchmark's own stages and around the
package functions listed in ``WRAPPED``.  Each wrapper replaces the name in
the module that looks it up (``mcsim`` imports ``_compile_round`` by name,
so ``mcsim._compile_round`` is wrapped as well as ``engine._compile_round``).
A name that no longer exists is reported as absent instead of failing.

Very hot leaf calls (``lpmatch.constraint_rhs``) are aggregated as a count
and a total instead of one span per call; their time is still subtracted
from the enclosing span's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, kind); kind "leaf" aggregates instead of
# recording a span per call
WRAPPED = (
    ("lpmatch", "solve_lp_match", "lpmatch.solve_lp_match", "span"),
    ("lpmatch", "check_feasibility", "lpmatch.check_feasibility", "span"),
    ("lpmatch", "linprog", "lpmatch.linprog", "span"),
    ("lpmatch", "constraint_rhs", "lpmatch.constraint_rhs", "leaf"),
    ("engine", "build_proportional_distribution", "permdist.build_proportional_distribution", "span"),
    ("engine", "_compile_round", "engine._compile_round", "span"),
    ("mcsim", "_compile_round", "engine._compile_round", "span"),
    ("oracle", "_compile_round", "engine._compile_round", "span"),
    ("engine.DistributionCache", "support_for", "engine.DistributionCache.support_for", "span"),
    ("mcsim", "run_batch", "mcsim.run_batch", "span"),
    ("mcsim", "_compile_arrays", "mcsim._compile_arrays", "span"),
    ("mcsim._ApxContext", "round2_for", "mcsim._ApxContext.round2_for", "span"),
    ("mcsim", "_run_proposal_chunk", "mcsim._run_proposal_chunk", "span"),
    ("mcsim", "_greedy_chunk", "mcsim._greedy_chunk", "span"),
    ("oracle", "exact_event_probabilities", "oracle.exact_event_probabilities", "span"),
    ("oracle", "_build_joint", "oracle._build_joint", "span"),
    ("oracle", "expected_opt_exact", "oracle.expected_opt_exact", "span"),
)


def _record_counters(tracer: "Tracer", name: str, args, result) -> None:
    """Counters read from a wrapped call's arguments or result."""
    if name == "lpmatch.solve_lp_match":
        tracer.counters["lpmatch.rows"] += len(result.generated_constraints)
    elif name == "permdist.build_proportional_distribution":
        tracer.counters["permdist.support_max"] = max(
            tracer.counters["permdist.support_max"], len(result.support)
        )
    elif name == "mcsim._run_proposal_chunk":
        tracer.counters["mcsim.chunk_trials"] += int(args[1])
    elif name == "oracle._build_joint":
        tracer.counters["oracle.joint_entries"] += len(result.mass)


class Tracer:
    """Spans as ``[name, start, end, parent index]`` kept in memory."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_total: dict[str, float] = defaultdict(float)
        self.leaf_count: dict[str, int] = defaultdict(int)
        self.leaf_in_span: dict[int, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.enabled = True

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    @contextmanager
    def paused(self):
        """Run a block (checks, probes) without recording anything."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, owner, attr: str, name: str, kind: str) -> None:
        fn = getattr(owner, attr)

        if kind == "leaf":
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.leaf_total[name] += dt
                    self.leaf_count[name] += 1
                    if self.stack:
                        self.leaf_in_span[self.stack[-1]] += dt
        else:
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with self.span(name):
                    result = fn(*args, **kwargs)
                _record_counters(self, name, args, result)
                return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every name in ``WRAPPED`` that ``package`` still has."""
        for owner_path, attr, name, kind in WRAPPED:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None or not hasattr(owner, attr):
                self.absent.add(name)
                continue
            self._wrap(owner, attr, name, kind)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds, and self seconds (the span
        minus its child spans and the aggregated leaf calls inside it)."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx] - self.leaf_in_span[idx]
        for name, total in self.leaf_total.items():
            out[name] = {"count": self.leaf_count[name], "total_s": total, "self_s": total}
        return out

    def count_children(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        return sum(
            1
            for name, _, _, p in self.spans
            if name == child and p >= 0 and self.spans[p][0] == parent
        )

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [
                [index[n], round(s - self.origin, 7), round(e - self.origin, 7), p]
                for n, s, e, p in self.spans
            ],
            "summary": self.summary(),
            "absent": sorted(self.absent),
        }
