"""TSExplain core: the paper's primary contribution.

Submodules
----------
types        Explanation predicates and non-overlap semantics (Def. 3.1, 3.4).
space        Drill-down explanation space (candidates + prefix closure).
diff         Two-relations diff scores gamma/tau (Def. 3.2, 3.3), Spark + matrix forms.
precompute   Spark GROUPING SETS per-explanation series (pipeline module a).
cascading    Cascading Analysts top-m non-overlapping DP + guess-and-verify,
             batched over segments (the production kernel) and scalar (oracle).
toplists     Per-segment top lists: chunks of segments through the batched kernel.
spark_ca     Optional: the batched CA kernel on Spark executors via mapInPandas.
ndcg         Scalar-reference NDCG distance (Sec. 4.1).
segcost      Vectorized within-segment cost matrices for all 8 metrics.
kseg         K-Segmentation dynamic program (Eq. 11).
elbow        Optimal-K selection (Kneedle elbow, Sec. 6).
filtering    Support filter optimization (Sec. 7.5.1).
sketch       Sketching optimization O2 (Sec. 5.3.2).
pipeline     End-to-end TSExplain with stage timings.
"""
from repro.core.types import Explanation, overlaps  # noqa: F401
from repro.core.space import ExplanationSpace  # noqa: F401
