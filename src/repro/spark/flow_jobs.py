"""Distributed flow computation over extracted subgraphs (Tables 5-8).

Flow computation is sequential *within* one subgraph (a time-ordered
scan / one LP) but embarrassingly parallel *across* the thousands of
extracted subgraphs, so the Spark mapping is
``groupBy("seed").applyInPandas(...)`` — one task per group runs the
paper's four methods (Greedy, LP, Pre, PreSim) and reports flows,
per-method wall-clock milliseconds, and the subgraph's class:

* **A** — soluble by greedy as-is (Lemma 2),
* **B** — soluble after Algorithm-1 preprocessing,
* **C** — still needs the LP.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import SINK, SOURCE, TemporalGraph
from ..core.pipeline import run_all_methods

RESULT_SCHEMA = (
    "seed long, n_vertices long, n_edges long, n_interactions long, "
    "cls string, flow_greedy double, flow_lp double, flow_pre double, "
    "flow_presim double, ms_greedy double, ms_lp double, ms_pre double, "
    "ms_presim double"
)


def _flow_one_seed(pdf: pd.DataFrame, lp_cap: int | None) -> pd.DataFrame:
    g = TemporalGraph.from_interactions(
        zip(pdf["src"], pdf["dst"], pdf["ts"], pdf["qty"]),
        source=SOURCE,
        sink=SINK,
    )
    row = run_all_methods(g, lp_cap=lp_cap)
    return pd.DataFrame(
        [
            {
                "seed": int(pdf["seed"].iloc[0]),
                "n_vertices": len(g.vertices),
                "n_edges": len(g.edges),
                "n_interactions": g.n_interactions,
                **row,
            }
        ]
    )


def compute_flows(subgraphs: DataFrame, *, lp_cap: int | None = None) -> DataFrame:
    """Run all four methods on every seed subgraph; one result row each."""
    return subgraphs.groupBy("seed").applyInPandas(
        lambda pdf: _flow_one_seed(pdf, lp_cap), schema=RESULT_SCHEMA
    )


def _method_aggs() -> list:
    """Subgraph count and per-method average milliseconds (Tables 6-8);
    built per call, since a Column needs an active Spark session."""
    return [
        F.count("*").alias("n_subgraphs"),
        F.avg("ms_greedy").alias("greedy_ms"),
        F.avg("ms_lp").alias("lp_ms"),
        F.avg("ms_pre").alias("pre_ms"),
        F.avg("ms_presim").alias("presim_ms"),
    ]


def runtime_table(results: DataFrame) -> DataFrame:
    """Tables 6-8 shape: All / Class A / B / C rows with per-method
    average milliseconds and subgraph counts."""
    per_class = results.groupBy("cls").agg(*_method_aggs())
    overall = results.agg(F.lit("All").alias("cls"), *_method_aggs())
    return overall.unionByName(per_class).orderBy("cls")


def interaction_bucket_table(results: DataFrame) -> DataFrame:
    """Figure-11 style bucketing by interaction count (<100, 100-1000,
    >1000); kept as a DataFrame since figures are out of scope."""
    bucket = (
        F.when(F.col("n_interactions") < 100, "<100")
        .when(F.col("n_interactions") <= 1000, "100-1000")
        .otherwise(">1000")
    )
    return (
        results.withColumn("bucket", bucket)
        .groupBy("bucket")
        .agg(*_method_aggs())
        .orderBy("bucket")
    )
