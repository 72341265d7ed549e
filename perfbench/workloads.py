"""The benchmark workloads: the Table 7 flow job and the Table 11 pattern job.

Each workload's network is generated from generator seed 7 (the seed of
the paper tables), so its results are the ones ``reference.json``
records. The run's ``--seed`` permutes the order of the interaction rows
handed to Spark. Every result must be invariant to that order, which the
checks confirm on every run.

A workload has three entry points:

* ``setup(spark, order_seed)`` — generates the input rows;
* ``job(state)`` — one untraced, timed run of the job, lazy as in
  ``jobs/``; returns ``(seconds, ops, failures)``;
* ``traced(state, tracer)`` — the same job with a span and a Spark job
  group around each layer call, each layer forced with
  ``.cache().count()``; returns ``(metrics, ops, failures, notes)``.
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from checks import flow_summary, pattern_failures, reference_failures, subgraph_failures
from solver_replay import Replay, graphs_from_rows

NETWORK_SEED = 7
#: One pattern per distinct plan of ``pattern_search.pb_search``: a path
#: table scan (P1 on C2; P2 and P3 scan L2 and L3 the same way), per-instance
#: flows from raw interactions (P4), the L2-L3 join (P5), the L3 self-join
#: (P6), the relaxed group-by sum (RP2; RP1 runs it on C2) and the relaxed
#: vertex-disjoint selection in ``applyInPandas`` (RP3).
PATTERNS = ["P1", "P4", "P5", "P6", "RP2", "RP3"]
METHODS = ("greedy", "lp", "pre", "presim")


def network_pdf(profile: str, sf: float, order_seed: int):
    """The workload's network with its rows in an order drawn from ``order_seed``."""
    from repro.synth_data import interaction_network_pdf

    pdf = interaction_network_pdf(profile=profile, sf=sf, seed=NETWORK_SEED)
    perm = np.random.default_rng(order_seed).permutation(len(pdf))
    return pdf.iloc[perm].reset_index(drop=True)


def forced(df):
    """Cache ``df`` and materialise it; returns ``(df, rows)``."""
    df = df.cache()
    return df, df.count()


def probe(df) -> int:
    """Count a frame the pipeline does not reuse, then drop it from the
    cache so later layers compute their own input, as the job does."""
    df = df.cache()
    n = df.count()
    df.unpersist(blocking=True)
    return n


def collect_rows(results) -> list[dict]:
    return results.orderBy("seed").toPandas().to_dict("records")


@dataclass
class State:
    spark: object
    pdf: object
    extra: dict = field(default_factory=dict)


def synth_layer(tr, spark, profile, sf, order_seed):
    """synth_data: generate the network and load it into Spark."""
    with tr.span("synth_data"):
        with tr.span("synth_data.generate", probe=True):
            pdf = network_pdf(profile, sf, order_seed)
        inter, n = forced(spark.createDataFrame(pdf))
    return inter, {
        "synth_data.gen_s": tr.get("synth_data").seconds,
        "synth_data.interactions": n,
    }


def network_layer(tr, inter):
    from repro.spark.network import edges_df

    with tr.span("network", probe=True):
        n = probe(edges_df(inter))
    return {"network.edges_s": tr.get("network").seconds, "network.edges": n}


def subgraph_layers(tr, inter, cap):
    """spark.subgraphs: the extraction itself, then its two sub-steps.

    The extraction runs first, on nothing cached but the network, so its
    time and Spark counts are those of the whole extraction.
    """
    from repro.spark.subgraphs import cycle_paths, extract_seed_subgraphs, seed_edge_sets

    with tr.span("subgraphs"):
        with tr.span("subgraphs.extract"):
            sub, rows = forced(extract_seed_subgraphs(inter, max_interactions=cap))
        with tr.span("subgraphs.cycles", probe=True):
            c2, c3 = probe(cycle_paths(inter, 2)), probe(cycle_paths(inter, 3))
        with tr.span("subgraphs.seed_edges", probe=True):
            edges = seed_edge_sets(inter).cache()
            n_edges = edges.count()
            total = edges.select("seed").distinct().count()
            edges.unpersist(blocking=True)
            kept = sub.select("seed").distinct().count()
    ext = tr.get("subgraphs.extract")
    return sub, {
        "subgraphs.cycles_s": tr.get("subgraphs.cycles").seconds,
        "subgraphs.cycles2": c2,
        "subgraphs.cycles3": c3,
        "subgraphs.seed_edges_s": tr.get("subgraphs.seed_edges").seconds,
        "subgraphs.seed_edges": n_edges,
        "subgraphs.extract_s": ext.seconds,
        "subgraphs.rows": rows,
        "subgraphs.seeds_total": total,
        "subgraphs.seeds_kept": kept,
        "subgraphs.seed_keep_ratio": kept / total if total else 0.0,
        "subgraphs.jobs": ext.counters["jobs"],
        "subgraphs.stages": ext.counters["stages"],
        "subgraphs.stages_skipped": ext.counters["stages_skipped"],
        "subgraphs.tasks": ext.counters["tasks"],
    }


# --------------------------------------------------------------------------
# flow-ctu13: the Table 7 job
# --------------------------------------------------------------------------
class FlowCtu13:
    name = "flow-ctu13"
    expected_ops = 212
    #: Two shuffle partitions per core spread the flow stage's costly
    #: subgraphs over the cores; with one, a probe run took a quarter longer.
    params = {"profile": "ctu13", "sf": 0.1, "cap": 800, "lp_cap": 800,
              "network_seed": NETWORK_SEED, "warmup_sf": 0.05, "partitions_per_core": 2}

    def _pipeline(self, spark, pdf, net_sf):
        """The job as ``benchmarks/_flow_bench.py`` runs it:
        ``jobs/flow_tables.run``, then a collect of its table. The job's
        network loader is swapped for one that hands Spark ``pdf``, the
        same network with its rows in the run's order."""
        import flow_tables

        p = self.params

        def load(spark, *, profile, sf):
            assert (profile, sf) == (p["profile"], net_sf), "the job asked for another network"
            return spark.createDataFrame(pdf)

        with mock.patch.object(flow_tables, "interaction_network", load):
            results, table = flow_tables.run(
                spark, p["profile"], net_sf, max_interactions=p["cap"], lp_cap=p["lp_cap"]
            )
        return results, table.toPandas()

    def setup(self, spark, order_seed):
        """Warm up with the same job on a smaller network."""
        p = self.params
        self._pipeline(spark, network_pdf(p["profile"], p["warmup_sf"], order_seed), p["warmup_sf"])
        spark.catalog.clearCache()
        return State(spark, network_pdf(p["profile"], p["sf"], order_seed))

    def _failures(self, rows, table) -> list[str]:
        bad = subgraph_failures(rows)
        summary = flow_summary(rows)
        all_row = table[table["cls"] == "All"]
        if all_row.empty or int(all_row["n_subgraphs"].iloc[0]) != len(rows):
            bad.append("runtime table's All row does not count every subgraph")
        self.last_summary = summary
        return bad + reference_failures(self.name, summary)

    def job(self, st: State):
        st.spark.catalog.clearCache()
        t0 = time.perf_counter()
        results, table = self._pipeline(st.spark, st.pdf, self.params["sf"])
        secs = time.perf_counter() - t0
        rows = collect_rows(results)
        return secs, len(rows), self._failures(rows, table)

    def traced(self, st: State, tr):
        from repro.spark.flow_jobs import compute_flows, runtime_table

        p, spark = self.params, st.spark
        spark.catalog.clearCache()
        with tr.span("job"):
            inter, m = synth_layer(tr, spark, p["profile"], p["sf"], st.extra["order_seed"])
            m.update(network_layer(tr, inter))
            sub, ms = subgraph_layers(tr, inter, p["cap"])
            m.update(ms)
            with tr.span("flow_jobs"):
                with tr.span("flow_jobs.compute"):
                    results, _ = forced(compute_flows(sub, lp_cap=p["lp_cap"]))
                with tr.span("flow_jobs.table"):
                    table = runtime_table(results).toPandas()
            with tr.span("core", probe=True):
                replay = Replay()
                replay_s = [replay.check(seed, g) for seed, g in graphs_from_rows(sub.toPandas())]
        rows = collect_rows(results)
        failures = self._failures(rows, table) + replay.failures
        m.update(replay.metrics())
        m["solver.replay_s"] = math.fsum(replay_s)
        comp = tr.get("flow_jobs.compute")
        worker_ms = math.fsum(
            r[f"ms_{k}"] for r in rows for k in METHODS if not math.isnan(r[f"ms_{k}"])
        )
        m.update({
            "flow_jobs.compute_s": comp.seconds,
            "flow_jobs.worker_ms_sum": worker_ms,
            "flow_jobs.worker_share": worker_ms / 1e3 / (comp.seconds * st.extra["cores"]),
            "flow_jobs.table_s": tr.get("flow_jobs.table").seconds,
            "flow_jobs.stages": comp.counters["stages"],
            "flow_jobs.tasks": comp.counters["tasks"],
            "flow_jobs.failed_tasks": comp.counters["failed_tasks"],
        })
        for cls in "ABC":
            cr = [r for r in rows if r["cls"] == cls]
            m[f"flow_jobs.{cls}.n"] = len(cr)
            for k in METHODS:
                vals = [r[f"ms_{k}"] for r in cr if not math.isnan(r[f"ms_{k}"])]
                m[f"flow_jobs.{cls}.{k}_ms_mean"] = statistics.fmean(vals) if vals else 0.0
        ext_s = m["subgraphs.extract_s"]
        m["flow_jobs.extract_over_compute"] = ext_s / comp.seconds
        verdict = "longer" if ext_s > comp.seconds else "not longer"
        note = (f"extraction {ext_s:.2f} s takes {verdict} than the flow stage "
                f"{comp.seconds:.2f} s")
        return m, len(rows), failures, [note]


# --------------------------------------------------------------------------
# patterns-prosper: the Table 11 job
# --------------------------------------------------------------------------
class PatternsProsper:
    name = "patterns-prosper"
    expected_ops = len(PATTERNS)
    #: One shuffle partition per core: the hundreds of stages run on a few
    #: hundred rows, and with two per core two probe runs took 15 % longer.
    params = {"profile": "prosper", "sf": 0.003, "patterns": PATTERNS,
              "network_seed": NETWORK_SEED, "warmup_sf": 0.001, "partitions_per_core": 1}

    def _pipeline(self, spark, pdf, names):
        """``jobs/pattern_tables.run`` for prosper on the given rows and
        patterns, timing the path tables apart from the pattern rows. A
        copy of that job's body, since the job runs a fixed pattern list:
        keep the two in step."""
        from repro.core.patterns import ALL_PATTERNS
        from repro.spark.paths import c2_table, l2_table, l3_table
        from repro.spark.pattern_search import pattern_table_row

        interactions = spark.createDataFrame(pdf).cache()
        interactions.count()
        t0 = time.perf_counter()
        l2 = l2_table(interactions).cache()
        l3 = l3_table(interactions).cache()
        l2.count(), l3.count()
        c2 = c2_table(interactions).cache()
        c2.count()
        paths_s = time.perf_counter() - t0
        rows = [pattern_table_row(interactions, ALL_PATTERNS[n], l2=l2, l3=l3, c2=c2)
                for n in names]
        return paths_s, rows

    def setup(self, spark, order_seed):
        """Warm up with the same job on a smaller network."""
        p = self.params
        self._pipeline(spark, network_pdf(p["profile"], p["warmup_sf"], order_seed), p["patterns"])
        spark.catalog.clearCache()
        return State(spark, network_pdf(p["profile"], p["sf"], order_seed))

    def _failures(self, rows) -> list[str]:
        bad = [msg for r in rows for msg in pattern_failures(r)]
        summary = {
            "instances": {r["pattern"]: r["instances"] for r in rows},
            "flow_sum": {r["pattern"]: r["instances"] * r["avg_flow"] for r in rows},
        }
        self.last_summary = summary
        return bad + reference_failures(self.name, summary)

    def job(self, st: State):
        st.spark.catalog.clearCache()
        t0 = time.perf_counter()
        paths_s, rows = self._pipeline(st.spark, st.pdf, self.params["patterns"])
        secs = time.perf_counter() - t0
        st.extra["last"] = (paths_s, rows)
        return secs, len(rows), self._failures(rows)

    def traced(self, st: State, tr):
        from pyspark.sql import functions as F

        from repro.core.patterns import ALL_PATTERNS
        from repro.spark.paths import c2_table, l2_table, l3_table
        from repro.spark.pattern_search import gb_search, pb_search
        from repro.spark.subgraphs import cycle_paths

        p, spark = self.params, st.spark
        paths_s, rows = st.extra["last"]  # from the untraced run before this one
        failures = []
        m = {
            "paths.s": paths_s,
            "pattern_search.gb_s": math.fsum(r["gb_seconds"] for r in rows),
            "pattern_search.pb_s": math.fsum(r["pb_seconds"] for r in rows),
        }
        spark.catalog.clearCache()
        with tr.span("job"):
            inter, ms = synth_layer(tr, spark, p["profile"], p["sf"], st.extra["order_seed"])
            m.update(ms)
            with tr.span("paths"):
                tables = {}
                for name, fn in (("l2", l2_table), ("l3", l3_table), ("c2", c2_table)):
                    with tr.span(f"paths.{name}"):
                        tables[name], m[f"paths.{name}_rows"] = forced(fn(inter))
                    m[f"paths.{name}_s"] = tr.get(f"paths.{name}").seconds
            with tr.span("pattern_search"):
                for name in p["patterns"]:
                    pat = ALL_PATTERNS[name]
                    res = {}
                    for side, fn, kw in (("gb", gb_search, {}), ("pb", pb_search, tables)):
                        with tr.span(f"pattern_search.{name}.{side}"):
                            res[side] = fn(inter, pat, **kw).agg(
                                F.count("*").alias("n"), F.avg("flow").alias("avg")
                            ).collect()[0]
                        m[f"pattern_search.{name}.{side}_s"] = tr.get(
                            f"pattern_search.{name}.{side}").seconds
                    m[f"pattern_search.{name}.instances"] = int(res["gb"]["n"])
                    failures += pattern_failures({
                        "pattern": name, "instances": int(res["gb"]["n"]),
                        "avg_flow": res["gb"]["avg"] or 0.0,
                        "pb_instances": int(res["pb"]["n"]),
                        "pb_avg_flow": res["pb"]["avg"] or 0.0,
                    })
            # Probes of layers the job reaches only through paths.py.
            m.update(network_layer(tr, inter))
            with tr.span("subgraphs.cycles", probe=True):
                m["subgraphs.cycles2"] = probe(cycle_paths(inter, 2))
                m["subgraphs.cycles3"] = probe(cycle_paths(inter, 3))
            m["subgraphs.cycles_s"] = tr.get("subgraphs.cycles").seconds
        m["paths.stages"] = sum(tr.get(f"paths.{n}").counters["stages"] for n in ("l2", "l3", "c2"))
        for side in ("gb", "pb"):
            m[f"pattern_search.{side}_stages"] = sum(
                tr.get(f"pattern_search.{n}.{side}").counters["stages"] for n in p["patterns"])
        return m, len(rows), failures, []


WORKLOADS = {w.name: w for w in (FlowCtu13(), PatternsProsper())}

