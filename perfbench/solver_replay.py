"""Per-layer replay of PreSim through the public functions of ``core``,
``lp`` and ``maxflow_static``.

``pipeline.run_presim`` (``_pre_core`` with simplification) times only
the whole method. The replay calls the same steps one by one —
``soluble_by_greedy`` → ``preprocess`` → ``simplify`` → ``greedy_flow``
or ``build_lp`` + ``solve_lp_maximize`` — and accumulates the time and
the counts of each. Its flow and class must equal ``run_presim``'s on
every subgraph: a drift from ``_pre_core`` is a failure.
"""
from __future__ import annotations

import math
import statistics
import time

from repro.core.graph import SINK, SOURCE, TemporalGraph
from repro.core.greedy import greedy_flow
from repro.core.pipeline import run_presim
from repro.core.preprocess import preprocess
from repro.core.simplify import simplify
from repro.core.solubility import soluble_by_greedy
from repro.lp.model import build_lp
from repro.lp.simplex import solve_lp_maximize
from repro.maxflow_static.time_expanded import max_flow_time_expanded

METRICS = (
    "solubility.s", "solubility.calls",
    "preprocess.s", "preprocess.interactions_removed",
    "preprocess.edges_removed", "preprocess.vertices_removed",
    "simplify.s", "simplify.chains_reduced", "simplify.vertices_removed",
    "greedy.s", "greedy.calls",
    "lp.build_s", "lp.solve_s", "lp.calls", "lp.iterations",
    "lp.residual_interactions", "lp.tableau_mb_max",
    "maxflow_static.te_s", "maxflow_static.te_nodes",
)


def graphs_from_rows(pdf) -> list[tuple[int, TemporalGraph]]:
    """One ``TemporalGraph`` per seed of extracted ``(seed, src, dst, ts, qty)`` rows."""
    return [
        (int(seed), TemporalGraph.from_interactions(
            zip(g["src"], g["dst"], g["ts"], g["qty"]), source=SOURCE, sink=SINK))
        for seed, g in pdf.groupby("seed", sort=True)
    ]


def te_node_count(g: TemporalGraph) -> int:
    """Nodes of the time-expanded network of ``g``: one per (vertex,
    distinct outgoing timestamp) off the source, plus super source and sink."""
    spend = {(v, t) for t, v, u, q in g.interactions_in_time_order() if v != g.source}
    return len(spend) + 2


class Replay:
    def __init__(self):
        self.acc = dict.fromkeys(METRICS, 0.0)
        self.presim_ms: dict[str, list[float]] = {"A": [], "B": [], "C": []}
        self.failures: list[str] = []

    def _timed(self, key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.acc[key] += time.perf_counter() - t0
        return out

    def _soluble(self, h) -> bool:
        self.acc["solubility.calls"] += 1
        return self._timed("solubility.s", soluble_by_greedy, h)

    def _greedy(self, h) -> float:
        self.acc["greedy.calls"] += 1
        return self._timed("greedy.s", greedy_flow, h)

    def presim(self, g):
        """``_pre_core(g, simplify_before_lp=True)``, step by step.

        Returns ``(flow, class, residual graph handed to the LP or None)``.
        """
        acc = self.acc
        if self._soluble(g):
            return self._greedy(g), "A", None
        res = self._timed("preprocess.s", preprocess, g)
        acc["preprocess.interactions_removed"] += res.interactions_removed
        acc["preprocess.edges_removed"] += res.edges_removed
        acc["preprocess.vertices_removed"] += res.vertices_removed
        if res.zero_flow:
            return 0.0, "B", None
        h = res.graph
        if self._soluble(h):
            return self._greedy(h), "B", None
        sim = self._timed("simplify.s", simplify, h)
        acc["simplify.chains_reduced"] += sim.chains_reduced
        acc["simplify.vertices_removed"] += sim.vertices_removed
        h = sim.graph
        if self._soluble(h):
            return self._greedy(h), "C", None
        c, A, b, constant, var_rows = self._timed("lp.build_s", build_lp, h)
        acc["lp.calls"] += 1
        acc["lp.residual_interactions"] += h.n_interactions
        m, n = A.shape  # computed: the simplex tableau is (m+1) x (n+m+1) doubles
        acc["lp.tableau_mb_max"] = max(acc["lp.tableau_mb_max"], (m + 1) * (n + m + 1) * 8 / 2**20)
        if not var_rows:
            return constant, "C", h
        res = self._timed("lp.solve_s", solve_lp_maximize, c, A, b)
        acc["lp.iterations"] += res.iterations
        return res.value + constant, "C", h

    def check(self, seed: int, g: TemporalGraph) -> float:
        """Replay one subgraph, compare with ``run_presim`` and, where an
        LP ran, with the time-expanded max flow of the same residual graph.
        Returns the replay's own time."""
        t0 = time.perf_counter()
        flow, cls, residual = self.presim(g)
        replay_s = time.perf_counter() - t0
        want = run_presim(g)
        self.presim_ms[want.cls].append(want.millis)
        if cls != want.cls or not math.isclose(flow, want.flow, rel_tol=1e-12, abs_tol=1e-12):
            self.failures.append(f"subgraph {seed}: replay gives {flow} ({cls}), "
                                 f"run_presim gives {want.flow} ({want.cls})")
        if residual is not None:
            self.acc["maxflow_static.te_nodes"] += te_node_count(residual)
            te = self._timed("maxflow_static.te_s", max_flow_time_expanded, residual)
            if not math.isclose(te, flow, rel_tol=1e-6, abs_tol=1e-9):
                self.failures.append(f"subgraph {seed}: residual LP {flow} != time-expanded {te}")
        return replay_s

    def metrics(self) -> dict:
        m = dict(self.acc)
        for cls, ms in self.presim_ms.items():
            m[f"solver.{cls}.n"] = len(ms)
            m[f"solver.{cls}.presim_ms_mean"] = statistics.fmean(ms) if ms else 0.0
        return m
