"""Distributed subgraph extraction (Section 6.2).

The paper's flow-computation experiments extract, for each *seed*
vertex, the union of all ≤3-hop paths that leave the seed and return to
it, split the seed into a source copy and a sink copy, and compute the
flow of the resulting DAG. Here the whole extraction is Catalyst
DataFrame work:

1. self-join the distinct-edge table into 2-hop (``a→b→a``) and 3-hop
   (``a→b→c→a``) cycles, each family planned once;
2. turn every path into hop-tagged ``(seed, u, v, hop)`` edge rows with
   one ``inline``, repartition them by seed, and give each endpoint its
   minimal hop position over the seed's paths with two windows — the
   minimal tail hop over ``(seed, u)`` and the minimal head hop over
   ``(seed, v)`` (the seed is 0 as a tail and last as a head);
3. keep an edge ``(u, v)`` only when ``pos(u) < pos(v)``, then take the
   distinct ``(seed, u, v)`` — the deterministic DAG guarantee of
   DESIGN.md §1(4) (Algorithm 1 requires a DAG; unioning raw cycle paths
   may create intermediate cycles);
4. attach the edges' interaction sequences and relabel the seed's
   outgoing copy as ``SOURCE`` (-1) and incoming copy as ``SINK`` (-2);
5. drop seeds whose subgraph exceeds ``max_interactions``, counted by a
   window over the seed (the paper dropped >10K-interaction subgraphs
   for the same reason: the direct LP baseline explodes).

``extraction_report`` counts what steps 3 and 5 drop; the extraction
itself does not compute it.

Returns one row per (seed, interaction): ``seed, src, dst, ts, qty``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import Window
from pyspark.sql import functions as F

from ..core.graph import SINK, SOURCE
from .network import edges_df


def cycle_paths(interactions: DataFrame, hops: int) -> DataFrame:
    """All ``hops``-hop cycles as one row per path.

    2 hops → columns ``(a, b)`` for ``a→b→a``; 3 hops → ``(a, b, c)``
    for ``a→b→c→a`` with ``a, b, c`` pairwise distinct.
    """
    e = edges_df(interactions)
    if hops == 2:
        return (
            e.alias("e1")
            .join(
                e.alias("e2"),
                (F.col("e1.v") == F.col("e2.u")) & (F.col("e2.v") == F.col("e1.u")),
            )
            .select(F.col("e1.u").alias("a"), F.col("e1.v").alias("b"))
        )
    if hops == 3:
        return (
            e.alias("e1")
            .join(e.alias("e2"), F.col("e1.v") == F.col("e2.u"))
            .join(
                e.alias("e3"),
                (F.col("e2.v") == F.col("e3.u")) & (F.col("e3.v") == F.col("e1.u")),
            )
            .where(
                (F.col("e2.v") != F.col("e1.u")) & (F.col("e1.v") != F.col("e2.v"))
            )
            .select(
                F.col("e1.u").alias("a"),
                F.col("e1.v").alias("b"),
                F.col("e2.v").alias("c"),
            )
        )
    raise ValueError("hops must be 2 or 3")


def _positioned_edges(interactions: DataFrame) -> DataFrame:
    """Every cycle-path edge as ``(seed, u, v, pu, pv)``, one row per
    path it lies on.

    ``pu`` / ``pv`` are the endpoints' minimal hop positions over the
    seed's paths; the seed is 0 as a tail and 9 (after any hop) as a
    head. Both minima are windows over one seed-partitioned frame.
    """
    def hop(u: str, v: str, i: int):
        return F.struct(F.col(u).alias("u"), F.col(v).alias("v"), F.lit(i).alias("hop"))

    p2 = cycle_paths(interactions, 2).select(
        F.col("a").alias("seed"), F.array(hop("a", "b", 0), hop("b", "a", 1)).alias("e")
    )
    p3 = cycle_paths(interactions, 3).select(
        F.col("a").alias("seed"),
        F.array(hop("a", "b", 0), hop("b", "c", 1), hop("c", "a", 2)).alias("e"),
    )
    edges = p2.unionByName(p3).select("seed", F.inline("e")).repartition("seed")
    # A vertex at hop k of a path is the tail of that path's edge k and
    # the head of its edge k - 1, so either minimum is its pos.
    pu = F.min("hop").over(Window.partitionBy("seed", "u"))
    pv = F.min(F.col("hop") + 1).over(Window.partitionBy("seed", "v"))
    return edges.select(
        "seed",
        "u",
        "v",
        F.when(F.col("u") == F.col("seed"), 0).otherwise(pu).alias("pu"),
        F.when(F.col("v") == F.col("seed"), 9).otherwise(pv).alias("pv"),
    )


def seed_edge_sets(interactions: DataFrame) -> DataFrame:
    """Per-seed DAG edge set: ``(seed, u, v)`` after the pos-filter.

    ``u`` / ``v`` are original vertex ids; the seed itself appears as an
    endpoint and is relabeled later. Also applies the ``pos(u) <
    pos(v)`` DAG filter to intermediate edges.
    """
    pos = _positioned_edges(interactions)
    return pos.where(F.col("pu") < F.col("pv")).select("seed", "u", "v").distinct()


def _seed_interactions(interactions: DataFrame) -> DataFrame:
    """Uncapped extraction: ``(seed, src, dst, ts, qty)``."""
    edges = seed_edge_sets(interactions)
    return (
        edges.join(
            interactions,
            (edges["u"] == interactions["src"]) & (edges["v"] == interactions["dst"]),
        )
        .select(
            "seed",
            F.when(F.col("u") == F.col("seed"), F.lit(SOURCE)).otherwise(F.col("u")).alias("src"),
            F.when(F.col("v") == F.col("seed"), F.lit(SINK)).otherwise(F.col("v")).alias("dst"),
            "ts",
            "qty",
        )
    )


def extract_seed_subgraphs(
    interactions: DataFrame,
    *,
    max_interactions: int = 800,
    max_seeds: int | None = None,
) -> DataFrame:
    """Section 6.2 extraction; returns ``(seed, src, dst, ts, qty)``.

    The seed's outgoing copy becomes ``SOURCE`` (-1), its incoming copy
    ``SINK`` (-2). Seeds with more than ``max_interactions`` rows are
    dropped (paper: 10K); ``max_seeds`` keeps the lowest seed ids for a
    deterministic cap.
    """
    n_i = F.count("*").over(Window.partitionBy("seed"))
    sub = (
        _seed_interactions(interactions)
        .withColumn("n_i", n_i)
        .where(F.col("n_i") <= max_interactions)
        .drop("n_i")
    )
    if max_seeds is not None:
        keep = sub.select("seed").distinct().orderBy("seed").limit(max_seeds)
        sub = sub.join(keep, "seed")
    return sub


def extraction_report(interactions: DataFrame, max_interactions: int = 800) -> DataFrame:
    """What extraction drops, as one row: ``n_seeds`` (seeds with a
    ≤3-hop cycle), ``n_seeds_over_cap`` (seeds with more than
    ``max_interactions`` interactions) and ``n_back_edges`` (distinct
    ``(seed, u, v)`` edges cut by the ``pos(u) < pos(v)`` filter).

    Not part of ``extract_seed_subgraphs``, so the flow job pays nothing
    for it.
    """
    seeds = (
        _seed_interactions(interactions)
        .groupBy("seed")
        .agg(F.count("*").alias("n_i"))
        .agg(
            F.count("*").alias("n_seeds"),
            F.count(F.when(F.col("n_i") > max_interactions, 1)).alias("n_seeds_over_cap"),
        )
    )
    back = (
        _positioned_edges(interactions)
        .where(F.col("pu") >= F.col("pv"))
        .select("seed", "u", "v")
        .distinct()
        .agg(F.count("*").alias("n_back_edges"))
    )
    return seeds.crossJoin(back)


def subgraph_stats(subgraphs: DataFrame) -> DataFrame:
    """Table-5 row: #subgraphs and average vertices/edges/interactions.

    Vertex counts include the two seed copies (SOURCE and SINK), i.e. a
    pure 2-hop-cycle subgraph a→b→a has 3 vertices and 2 edges.
    """
    per_seed = subgraphs.groupBy("seed").agg(
        (
            F.size(F.array_distinct(F.flatten(F.collect_list(F.array("src", "dst")))))
        ).alias("n_vertices"),
        F.countDistinct("src", "dst").alias("n_edges"),
        F.count("*").alias("n_interactions"),
    )
    return per_seed.agg(
        F.count("*").alias("n_subgraphs"),
        F.avg("n_vertices").alias("avg_vertices"),
        F.avg("n_edges").alias("avg_edges"),
        F.avg("n_interactions").alias("avg_interactions"),
    )
