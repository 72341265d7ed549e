"""Path precomputation (Section 5.2): L2/L3 cycle tables, C2 chains.

For every path instance the paper stores (i) the vertex-id sequence and
(ii) the interaction sequence that enters the buffer of the path's sink
under the greedy algorithm — which, by Lemma 3, determines the path's
maximum flow at any time moment. We store the same: one DataFrame per
path family, with a ``flow`` column (the path's max flow) and a
``deliveries`` column (the greedy delivery sequence, usable for
incremental flow computation when paths are stitched into larger
patterns).

The tables hold the instances of the patterns P2 (L2), P3 (L3) and P1
(C2). Enumeration is Catalyst self-joins; the per-path greedy run
happens in ``applyInPandas`` via
:func:`repro.spark.pattern_search.instance_flows`.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import TemporalGraph
from ..core.greedy import greedy_sink_deliveries
from ..core.patterns import P1, P2, P3, Pattern
from .network import edges_df
from .pattern_search import instance_flows
from .subgraphs import cycle_paths


def _chain_flow(g: TemporalGraph) -> dict:
    deliveries = greedy_sink_deliveries(g)
    return {
        "flow": float(sum(q for _, q in deliveries)),
        "deliveries": [{"ts": int(t), "qty": float(q)} for t, q in deliveries],
    }


def _path_table(interactions: DataFrame, pattern: Pattern, paths: DataFrame) -> DataFrame:
    return instance_flows(
        interactions,
        pattern,
        paths,
        _chain_flow,
        "flow double, deliveries array<struct<ts: long, qty: double>>",
    )


def l2_table(interactions: DataFrame) -> DataFrame:
    """2-hop cycle table: ``(a, b, flow, deliveries)`` for ``a→b→a``."""
    return _path_table(interactions, P2, cycle_paths(interactions, 2))


def l3_table(interactions: DataFrame) -> DataFrame:
    """3-hop cycle table: ``(a, b, c, flow, deliveries)`` for ``a→b→c→a``."""
    return _path_table(interactions, P3, cycle_paths(interactions, 3))


def c2_table(interactions: DataFrame) -> DataFrame:
    """2-hop chain table: ``(a, b, c, flow, deliveries)`` for ``a→b→c``
    with ``a, b, c`` pairwise distinct (precomputed for Prosper in the
    paper; chains of arbitrary endpoints were too large for the bigger
    networks)."""
    e = edges_df(interactions)
    chains = (
        e.alias("e1")
        .join(e.alias("e2"), F.col("e1.v") == F.col("e2.u"))
        .where(F.col("e2.v") != F.col("e1.u"))
        .select(
            F.col("e1.u").alias("a"),
            F.col("e1.v").alias("b"),
            F.col("e2.v").alias("c"),
        )
    )
    return _path_table(interactions, P1, chains)
