package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, EaBenchmark}
import repro.text.HashVectors

/** Structural feature `M^s`: seed-anchored GCN propagation.
  *
  * The paper trains a 2-layer GCN per KG (random init, shared weights)
  * with a margin-ranking loss that pulls seed pairs together. We keep the
  * GCN propagation operator `D^-1/2 (A+I) D^-1/2 · Z` but substitute the
  * SGD training with *seed anchoring*: the two members of a seed pair are
  * initialised with (and re-clamped each round to) one shared random unit
  * vector, while all other entities start at zero. Propagation then mixes
  * anchor directions through each KG's neighbourhoods, so an entity's
  * embedding is the signature of the seeds in its L-hop neighbourhood —
  * equivalent entities with overlapping neighbourhoods converge, which is
  * the same fixed point the margin loss optimises for, deterministically
  * and with no cross-KG initialisation noise (DESIGN.md §2).
  *
  * Implemented as an iterative RDD algorithm: one `join` + `reduceByKey`
  * per propagation round.
  */
object StructuralFeature {

  val DefaultLayers = 2

  /** Structural cosines are rescaled by this factor. Anchored propagation
    * saturates at exactly 1.0 for entities with identical seed
    * signatures, whereas the paper's SGD-trained GCN similarities stay
    * below the θ1 = 0.98 cap; without calibration the adaptive-fusion cap
    * would misread saturation as "feature too effective" and crush the
    * structural weight.
    */
  val CosineScale = 0.95

  /** Deterministic per-cell tie-break amplitude. Propagation produces
    * exact score ties (identical anchor signatures), which SGD-trained
    * embeddings never do; ties make whole plateaus row/col-maximal, and
    * the fusion conflict filter then discards every structural candidate.
    * A reproducible jitter far below any meaningful score difference
    * restores the continuous-score behaviour of the paper's matrices.
    */
  val JitterAmp = 1e-4

  /** Calibrate a raw structural cosine matrix: rescale below θ1 and break
    * exact ties deterministically in (src, dst).
    */
  def calibrate(m: DataFrame): DataFrame = {
    val jitter = org.apache.spark.sql.functions.udf { (s: Long, d: Long) =>
      repro.kg.NameModel.frac(s"jitter:$s:$d")
    }
    m.select(col("src"), col("dst"),
      (col("score") * CosineScale + jitter(col("src"), col("dst")) * JitterAmp)
        .as("score"))
  }

  /** Symmetric-normalised undirected adjacency with self-loops:
    * `(i, j, w)` rows with `w = 1/sqrt(d_i · d_j)`, `d = degree + 1`.
    */
  private def normalizedEdges(triples: DataFrame, universe: DataFrame): DataFrame = {
    val und = triples.select(col("src").as("i"), col("dst").as("j"))
      .union(triples.select(col("dst").as("i"), col("src").as("j")))
      .union(universe.select(col("id").as("i"), col("id").as("j"))) // self-loops
      .distinct()
    val deg = und.groupBy("i").agg(count(lit(1)).as("d"))
    und.join(deg, Seq("i"))
      .join(deg.select(col("i").as("j"), col("d").as("dj")), Seq("j"))
      .select(col("i"), col("j"),
        (lit(1.0) / sqrt(col("d") * col("dj"))).as("w"))
  }

  /** Propagate `layers` rounds from anchored initial vectors.
    *
    * @param triples  one KG's triples `(src, rel, dst)`
    * @param universe all entity ids of this KG `(id)` — includes isolated
    *                 entities, which keep their initial vectors
    * @param anchors  `(id, vec)` clamped entities (seed-pair members, plus
    *                 any bootstrapped pairs); vectors are re-imposed after
    *                 every round
    * @param side     1 or 2 (kept for symmetry in call sites and logs)
    * @param initOverride optional `(id, vec)` initial vectors for
    *                 non-anchored entities — the representation-level
    *                 fusion baseline seeds propagation with name
    *                 embeddings here; entities absent from the override
    *                 (or with an all-zero vector) fall back to the
    *                 default zero init
    * @return `(id, vec)` L2-normalised structural embeddings; entities
    *         that no anchor reaches within `layers` hops stay at the
    *         zero vector (cosine 0 to everything — no signal, no noise).
    *         The result is cached and materialised, and the caller owns
    *         that cache: it unpersists the result when done with it
    */
  def embed(spark: SparkSession, triples: DataFrame, universe: DataFrame,
            anchors: DataFrame, side: Int,
            dim: Int = BenchmarkGen.Dim, layers: Int = DefaultLayers,
            initOverride: Option[DataFrame] = None): DataFrame = {
    import spark.implicits._

    val anchorRdd: RDD[(Long, Array[Double])] =
      anchors.select(col("id"), col("vec")).as[(Long, Seq[Double])].rdd
        .mapValues(_.toArray)
        // Defensive: one anchor per entity — duplicate ids would multiply
        // rows through every join below.
        .reduceByKey((a, _) => a)
    val overrideRdd: RDD[(Long, Array[Double])] = initOverride match {
      case Some(df) =>
        df.select(col("id"), col("vec")).as[(Long, Seq[Double])].rdd
          .mapValues(_.toArray).filter(kv => kv._2.exists(_ != 0.0))
      case None => spark.sparkContext.emptyRDD
    }
    // Non-anchored entities start at zero: embeddings are then pure
    // mixtures of anchor directions, with no cross-KG random noise —
    // the label-propagation analogue of the paper's trained alignment.
    val init: RDD[(Long, Array[Double])] =
      universe.select(col("id")).as[Long].rdd
        .map(id => id -> new Array[Double](dim))
        .leftOuterJoin(overrideRdd)
        .mapValues { case (zero, ov) => ov.map(HashVectors.normalize).getOrElse(zero) }
        .leftOuterJoin(anchorRdd)
        .mapValues { case (base, anch) => anch.getOrElse(base) }

    // Edges keyed by message source node; messages flow i -> j.
    val edges: RDD[(Long, (Long, Double))] =
      normalizedEdges(triples, universe).as[(Long, Long, Double)].rdd
        .map { case (i, j, w) => (i, (j, w)) }
        .cache()

    def propagate(emb: RDD[(Long, Array[Double])]): RDD[(Long, Array[Double])] = {
      val propagated = edges.join(emb)
        .map { case (_, ((j, w), v)) => (j, HashVectors.scale(v, w)) }
        .reduceByKey(HashVectors.add)
        .mapValues(HashVectors.normalize)
      // Isolated entities receive no messages; keep their current vector.
      emb.leftOuterJoin(propagated)
        .mapValues { case (old, p) => p.getOrElse(old) }
        .leftOuterJoin(anchorRdd) // re-clamp anchors
        .mapValues { case (v, anch) => anch.getOrElse(v) }
    }

    // Each round is materialised before the previous one is released; the
    // last round goes straight into the returned cache.
    var emb = init.cache()
    for (_ <- 2 to layers) {
      val next = propagate(emb).cache()
      next.count()
      emb.unpersist()
      emb = next
    }
    val last = if (layers >= 1) propagate(emb) else emb
    val out = last.map { case (id, v) => (id, v.toSeq) }.toDF("id", "vec").cache()
    out.count()
    emb.unpersist()
    edges.unpersist()
    out
  }

  /** Anchor tables for the two sides: each seed pair `(u, v)` shares one
    * deterministic unit vector keyed by the pair.
    */
  def anchors(spark: SparkSession, pairs: DataFrame, dim: Int = BenchmarkGen.Dim)
      : (DataFrame, DataFrame) = {
    import spark.implicits._
    val withVec = pairs.select(col("src"), col("dst")).as[(Long, Long)]
      .map { case (u, v) => (u, v, HashVectors.unitGaussian(s"pair:$u:$v", dim).toSeq) }
      .toDF("src", "dst", "vec")
    (withVec.select(col("src").as("id"), col("vec")),
     withVec.select(col("dst").as("id"), col("vec")))
  }

  /** Full `M^s` for a benchmark: embed both KGs with seed anchoring and
    * take cosine similarity over the test domain.
    *
    * @param extraPairs optional additional anchored pairs (bootstrapping
    *                   baselines append confident matches here)
    */
  def matrix(spark: SparkSession, b: EaBenchmark,
             dim: Int = BenchmarkGen.Dim, layers: Int = DefaultLayers,
             extraPairs: Option[DataFrame] = None): DataFrame = {
    val pairs = extraPairs match {
      case Some(p) => b.seeds.union(p.select(col("src"), col("dst"))).distinct()
      case None    => b.seeds
    }
    val (a1, a2) = anchors(spark, pairs, dim)
    val u1 = b.names1.select(col("id"))
    val u2 = b.names2.select(col("id"))
    val e1 = embed(spark, b.triples1, u1, a1, side = 1, dim = dim, layers = layers)
    val e2 = embed(spark, b.triples2, u2, a2, side = 2, dim = dim, layers = layers)
    calibrate(SimilarityMatrix.cosineCross(e1, e2, SimilarityMatrix.testDomain(b.test)))
  }
}
