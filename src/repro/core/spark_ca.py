"""Cascading Analysts over segments on Spark executors.

The pipeline runs CA in the driver with the batched kernel
(:func:`repro.core.toplists.compute_toplists`). This module ships the same
work to executors instead: segments go into a DataFrame, every
``mapInPandas`` partition runs the batched kernel on its chunk of segments,
with the eps x n series matrix and the explanation space broadcast.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space import ExplanationSpace
from repro.core.toplists import TopLists, compute_toplists, dcg_weights

Segment = Tuple[int, int]

_SCHEMA = "row long, rank int, id long, gamma double, sign int"


def compute_toplists_spark(
    spark: SparkSession,
    S: np.ndarray,
    space: ExplanationSpace,
    segments: Sequence[Segment],
    m: int,
    use_gv: bool = True,
    m_bar0: int = 30,
) -> TopLists:
    """Same contract as :func:`repro.core.toplists.compute_toplists`, but the
    segment chunks run on Spark executors."""
    segs = np.asarray(list(segments), dtype=np.int64).reshape(-1, 2)
    sc = spark.sparkContext
    bc = sc.broadcast((S, space, m, use_gv, m_bar0))

    def run(batches):
        S_, space_, m_, gv_, mb_ = bc.value
        for pdf in batches:
            tl = compute_toplists(
                S_, space_, zip(pdf["s"], pdf["e"]), m_, gv_, mb_
            )
            R = len(pdf)
            yield pd.DataFrame(
                {
                    "row": np.repeat(pdf["row"].to_numpy(), m_),
                    "rank": np.tile(np.arange(m_, dtype=np.int32), R),
                    "id": tl.ids.ravel(),
                    "gamma": tl.gammas.ravel(),
                    "sign": tl.signs.ravel().astype(np.int32),
                }
            )

    n_part = min(max(1, len(segs) // 64), sc.defaultParallelism * 4)
    sdf = spark.createDataFrame(
        pd.DataFrame({"row": np.arange(len(segs)), "s": segs[:, 0], "e": segs[:, 1]}),
        schema="row long, s long, e long",
    ).repartition(n_part)
    rows = sdf.mapInPandas(run, schema=_SCHEMA).toPandas()
    bc.unpersist()

    R = len(segs)
    ids = np.full((R, m), -1, dtype=np.int64)
    gammas = np.zeros((R, m))
    signs = np.zeros((R, m), dtype=np.int8)
    at = (rows["row"].to_numpy(), rows["rank"].to_numpy())
    ids[at] = rows["id"].to_numpy()
    gammas[at] = rows["gamma"].to_numpy()
    signs[at] = rows["sign"].to_numpy()
    idcg = (gammas * dcg_weights(m)).sum(axis=1)
    return TopLists(
        m=m, segments=segs, ids=ids, gammas=gammas, signs=signs, idcg=idcg
    )
