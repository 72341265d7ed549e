"""Correctness checks: cross-solver invariants and the recorded reference.

Every failed check counts one failed operation (a subgraph or a
pattern); none of them raises. ``reference.json`` holds what the
unchanged program produces on each workload's network (generator seed
7): class counts, per-pattern instance counts and exact flow sums. The
paper's results must not change, so a later commit must reproduce them.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-6  # cross-solver agreement
REF_TOL = 1e-9  # agreement with the recorded reference (summation order only)
REFERENCE = Path(__file__).parent / "reference.json"


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-9


def subgraph_failures(rows) -> list[str]:
    """Invariants of one result row per subgraph.

    ``rows`` are dicts with ``cls`` and ``flow_{greedy,lp,pre,presim}``
    (``flow_lp`` is NaN where the direct LP was skipped). Returns one
    message per failing subgraph.
    """
    bad = []
    for i, r in enumerate(rows):
        why = []
        pre, presim, greedy, lp = (
            r["flow_pre"], r["flow_presim"], r["flow_greedy"], r["flow_lp"]
        )
        if not close(pre, presim):
            why.append(f"pre {pre} != presim {presim}")
        if not math.isnan(lp) and not close(lp, presim):
            why.append(f"lp {lp} != presim {presim}")
        if greedy > presim + 1e-9 * max(1.0, abs(presim)):
            why.append(f"greedy {greedy} > presim {presim}")
        if r["cls"] == "A" and not close(greedy, presim):
            why.append(f"class A but greedy {greedy} != presim {presim}")
        if why:
            bad.append(f"subgraph {r.get('seed', i)}: " + "; ".join(why))
    return bad


def flow_summary(rows) -> dict:
    """Class counts and exact (order-independent) per-method flow sums."""
    out = {"n": len(rows), "A": 0, "B": 0, "C": 0}
    for r in rows:
        out[r["cls"]] += 1
    for m in ("greedy", "lp", "pre", "presim"):
        vals = [r[f"flow_{m}"] for r in rows if not math.isnan(r[f"flow_{m}"])]
        out[f"flow_{m}_sum"] = math.fsum(vals)
        out[f"{m}_runs"] = len(vals)
    return out


def reference_failures(workload: str, summary: dict) -> list[str]:
    """Differences from the recorded reference of ``workload``."""
    ref = json.loads(REFERENCE.read_text()).get(workload)
    if ref is None:
        return [f"no reference recorded for {workload}"]
    bad = []
    for k, want in ref.items():
        got = summary.get(k)
        if isinstance(want, dict):
            for kk, ww in want.items():
                gg = (got or {}).get(kk)
                if gg is None or not close(gg, ww, REF_TOL):
                    bad.append(f"{k}.{kk}: {gg} != reference {ww}")
        elif got is None or not close(got, want, REF_TOL):
            bad.append(f"{k}: {got} != reference {want}")
    return bad


def pattern_failures(row: dict) -> list[str]:
    """GB and PB must agree on instance count and average flow."""
    bad = []
    if row["pb_instances"] != row["instances"]:
        bad.append(f"{row['pattern']}: GB {row['instances']} != PB {row['pb_instances']} instances")
    elif row["instances"] and not close(row["avg_flow"], row["pb_avg_flow"]):
        bad.append(f"{row['pattern']}: GB avg {row['avg_flow']} != PB avg {row['pb_avg_flow']}")
    return bad
