"""Query-engine layer: access-path planning.

The paper argues that with a fast interconnect "the GPU can select an
index scan instead of a full table scan" (Section 6) -- a *plan choice*.
:mod:`repro.engine.planner` is the cost-based access-path planner a DBMS
would use: it estimates every candidate (hash join, naive/partitioned/
windowed INLJ over every available index) with the simulation layer and
picks the cheapest, reproducing the paper's selectivity-threshold
guidance.
"""

from .planner import AccessPath, PlanChoice, QueryPlanner

__all__ = ["AccessPath", "PlanChoice", "QueryPlanner"]
