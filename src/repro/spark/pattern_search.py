"""Flow pattern enumeration (Section 5): GB baseline vs PB precomputed.

**GB (graph browsing, Section 5.1)** — the pattern's structure is
matched by Catalyst self-joins over the distinct-edge table (the
distributed analogue of backtracking over adjacency lists), then every
instance's raw interactions are gathered and its maximum flow computed
from scratch with the full PreSim pipeline in ``applyInPandas``.

**PB (preprocessing-based, Section 5.2)** — instances are assembled
from the precomputed L2/L3/C2 path tables (`repro.spark.paths`) that
``Pattern.parts`` names, and flows add up the tables' precomputed chain
flows (P1/P2/P3 directly, P5/P6 and the relaxed patterns additively,
per Lemma 3). Only P4 — whose chords make the precomputed flows
unusable (Figure 8(b) discussion) — falls back to per-instance flow
computation, which is why the paper sees PB ≈ GB for P4.

GB, P4 under PB, and the path tables themselves all compute flows with
:func:`instance_flows`.

Both return one row per instance with the pattern's label columns and a
``flow`` column, so tests can assert GB ≡ PB exactly.
"""
from __future__ import annotations

import time
from collections import defaultdict
from itertools import combinations, product
from typing import Callable, Dict, List, Optional

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import TemporalGraph
from ..core.patterns import PATH_TABLES, Pattern, instance_graph
from ..core.pipeline import run_presim
from .network import edges_df


class PBNotApplicable(ValueError):
    """PB cannot run a pattern: a path table it needs was not
    precomputed, or no path table covers it (the paper's "n/a" cells)."""


# --------------------------------------------------------------------------
# GB: structure matching by self-joins
# --------------------------------------------------------------------------
def gb_instances(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    """All instances of ``pattern`` — one row per mapping, columns =
    pattern labels (distinct labels map to distinct vertices)."""
    e = edges_df(interactions)
    df = None
    bound: Dict[str, str] = {}
    for i, (lv, lu) in enumerate(pattern.edges):
        ei = e.select(
            F.col("u").alias(f"__u{i}"), F.col("v").alias(f"__v{i}")
        )
        if df is None:
            df = ei
            bound[lv], bound[lu] = f"__u{i}", f"__v{i}"
            continue
        cond = None
        for lbl, col in ((lv, f"__u{i}"), (lu, f"__v{i}")):
            if lbl in bound:
                c = F.col(col) == F.col(bound[lbl])
                cond = c if cond is None else (cond & c)
        if cond is None:  # pattern edge disconnected from what's bound
            raise ValueError(f"pattern {pattern}: edge {i} binds no known label")
        df = df.join(ei, cond)
        bound.setdefault(lv, f"__u{i}")
        bound.setdefault(lu, f"__v{i}")
    for l1, l2 in combinations(pattern.labels, 2):
        df = df.where(F.col(bound[l1]) != F.col(bound[l2]))
    if pattern.canonical_lt is not None:
        lo, hi = pattern.canonical_lt
        df = df.where(F.col(bound[lo]) < F.col(bound[hi]))
    return df.select(*[F.col(bound[l]).alias(l) for l in pattern.labels]).distinct()


def _presim_flow(g: TemporalGraph) -> dict:
    return {"flow": float(run_presim(g).flow)}


def instance_flows(
    interactions: DataFrame,
    pattern: Pattern,
    instances: DataFrame,
    flow: Callable[[TemporalGraph], dict],
    schema: str,
) -> DataFrame:
    """Gather each instance's raw interactions and compute its flow.

    One join per pattern edge attaches the interactions of the edge's
    graph vertices; ``applyInPandas`` then calls ``flow`` on each
    instance's :func:`~repro.core.patterns.instance_graph`. ``flow``
    returns the output columns that follow the labels, typed by
    ``schema``.
    """
    labels = pattern.labels
    tagged = None
    for lv, lu in pattern.edges:
        part = instances.join(
            interactions,
            (instances[lv] == interactions["src"])
            & (instances[lu] == interactions["dst"]),
        ).select(*labels, "src", "dst", "ts", "qty")
        tagged = part if tagged is None else tagged.unionByName(part)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        mapping = {l: int(pdf[l].iloc[0]) for l in labels}
        seqs = defaultdict(list)
        for src, dst, ts, qty in zip(pdf["src"], pdf["dst"], pdf["ts"], pdf["qty"]):
            seqs[(int(src), int(dst))].append((ts, qty))
        g = instance_graph(pattern, mapping, seqs)
        return pd.DataFrame([{**mapping, **flow(g)}])

    schema = ", ".join(f"{l} long" for l in labels) + ", " + schema
    return tagged.groupBy(*labels).applyInPandas(fn, schema=schema)


def gb_search(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    """Full GB pipeline: enumerate + per-instance flow from raw data.

    For relaxed patterns the constituent paths are enumerated and their
    flows computed from raw interactions, then aggregated per instance
    (source vertex, or (a, c) endpoint pair for RP1)."""
    inst = gb_instances(interactions, pattern)
    per = instance_flows(interactions, pattern, inst, _presim_flow, "flow double")
    return _aggregate_relaxed(per, pattern) if pattern.relaxed else per


# --------------------------------------------------------------------------
# PB: assembly from precomputed path tables
# --------------------------------------------------------------------------
def _select_disjoint(pdf: pd.DataFrame, key: List[str], mids: List[str]) -> pd.DataFrame:
    """Greedy vertex-disjoint selection of one instance's parallel paths
    (flow-descending, deterministic tie-break) — honours the Section 6.3
    requirement that all intermediate vertices of a relaxed instance's
    parallel paths be different."""
    pdf = pdf.sort_values(["flow", *mids], ascending=[False] + [True] * len(mids))
    used: set = set()
    total, n = 0.0, 0
    for f, *vs in zip(pdf["flow"], *(pdf[m] for m in mids)):
        vs = [int(v) for v in vs]
        if used.intersection(vs):
            continue
        used.update(vs)
        total += float(f)
        n += 1
    return pd.DataFrame(
        [{**{k: int(pdf[k].iloc[0]) for k in key}, "flow": total, "n_paths": n}]
    )


def _aggregate_relaxed(per_path: DataFrame, pattern: Pattern) -> DataFrame:
    """Aggregate parallel-path rows into relaxed-pattern instances: one
    per distinct ``(source, sink)`` vertex pair."""
    key = list(dict.fromkeys((pattern.source, pattern.sink)))
    mids = [l for l in pattern.labels if l not in key]
    if len(mids) == 1:
        # Distinct paths with one intermediate vertex are vertex-disjoint.
        return per_path.groupBy(*key).agg(
            F.sum("flow").alias("flow"), F.count("*").alias("n_paths")
        )
    schema = ", ".join(f"{k} long" for k in key) + ", flow double, n_paths long"
    return per_path.select(*key, *mids, "flow").groupBy(*key).applyInPandas(
        lambda pdf: _select_disjoint(pdf, key, mids), schema=schema
    )


def pb_search(
    interactions: DataFrame,
    pattern: Pattern,
    *,
    l2: Optional[DataFrame] = None,
    l3: Optional[DataFrame] = None,
    c2: Optional[DataFrame] = None,
) -> DataFrame:
    """PB pipeline for ``pattern`` using the precomputed tables.

    Joins the tables named by ``pattern.parts`` on the source label,
    each renamed to the labels of the run of pattern edges it covers,
    and keeps rows whose parts share no other vertex. Without chords
    the flow is the sum of the parts' precomputed flows: each part is a
    source-chain, so the parts are independent (Lemma 3). Chords — edges
    no part covers, P4's a→c and b→a (Figure 8(b)) — are probed against
    the edge table, and they make the precomputed flows unusable: each
    instance's flow is then computed from raw interactions with PreSim.

    Raises :class:`PBNotApplicable` when a needed table is missing — the
    paper's "PB not applicable" case (P1/RP1 on Bitcoin and CTU-13,
    where no chain table was precomputed) — or no table covers the
    pattern.
    """
    tables = {"l2": l2, "l3": l3, "c2": c2}
    if not pattern.parts:
        raise PBNotApplicable(f"PB not applicable for {pattern}: no path table covers it")
    missing = [t.upper() for t in dict.fromkeys(pattern.parts) if tables[t] is None]
    if missing:
        raise PBNotApplicable(
            f"PB not applicable for {pattern}: no {'/'.join(missing)} table"
        )
    df, groups, flows, pos = None, [], [], 0
    for i, table in enumerate(pattern.parts):
        path = PATH_TABLES[table]
        run = pattern.edges[pos : pos + len(path.edges)]
        pos += len(path.edges)
        rename = dict(zip(path.labels, dict.fromkeys(l for e in run for l in e)))
        if tuple((rename[v], rename[u]) for v, u in path.edges) != run:
            raise ValueError(f"{pattern}: table {table} does not fit edges {run}")
        part = tables[table].select(
            *[F.col(c).alias(l) for c, l in rename.items()],
            F.col("flow").alias(f"__flow{i}"),
        )
        df = part if df is None else df.join(part, pattern.source)
        groups.append(list(rename.values()))
        flows.append(F.col(f"__flow{i}"))
    for g1, g2 in combinations(groups, 2):
        for x, y in product(g1, g2):
            if x not in g2 and y not in g1:
                df = df.where(F.col(x) != F.col(y))
    if pattern.canonical_lt is not None:
        lo, hi = pattern.canonical_lt
        df = df.where(F.col(lo) < F.col(hi))
    chords = pattern.edges[pos:]
    if chords:
        e = edges_df(interactions)
        for lv, lu in chords:
            df = df.join(e.select(F.col("u").alias(lv), F.col("v").alias(lu)), [lv, lu])
        per = instance_flows(
            interactions, pattern, df.select(*pattern.labels), _presim_flow, "flow double"
        )
    else:
        per = df.select(*pattern.labels, sum(flows[1:], flows[0]).alias("flow"))
    return _aggregate_relaxed(per, pattern) if pattern.relaxed else per


# --------------------------------------------------------------------------
# Table 9-11 harness
# --------------------------------------------------------------------------
def _count_avg(df: DataFrame):
    return df.agg(F.count("*").alias("n"), F.avg("flow").alias("avg_flow")).collect()[0]


def pattern_table_row(
    interactions: DataFrame,
    pattern: Pattern,
    *,
    l2: Optional[DataFrame] = None,
    l3: Optional[DataFrame] = None,
    c2: Optional[DataFrame] = None,
) -> dict:
    """Run GB and PB for one pattern; return the paper's table row:
    instance count, average flow, and wall-clock seconds per method.

    Timings are end-to-end Spark job times (enumeration + flow
    computation + final count/avg aggregation); the PB time excludes
    building L2/L3/C2, matching the paper's offline-precomputation
    accounting.
    """
    t0 = time.perf_counter()
    gb = _count_avg(gb_search(interactions, pattern))
    gb_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        pb_df = pb_search(interactions, pattern, l2=l2, l3=l3, c2=c2)
    except PBNotApplicable:
        pb_s, pb_n, pb_avg = None, None, None
    else:
        pb = _count_avg(pb_df)
        pb_s = time.perf_counter() - t0
        pb_n, pb_avg = int(pb["n"]), pb["avg_flow"]

    return {
        "pattern": str(pattern),
        "instances": int(gb["n"]),
        "avg_flow": float(gb["avg_flow"]) if gb["avg_flow"] is not None else 0.0,
        "gb_seconds": gb_s,
        "pb_seconds": pb_s,
        "pb_instances": pb_n,
        "pb_avg_flow": float(pb_avg) if pb_avg is not None else None,
    }
