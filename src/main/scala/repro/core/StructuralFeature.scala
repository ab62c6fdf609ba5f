package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, EaBenchmark, NameModel}
import repro.text.HashVectors
import scala.collection.mutable
import scala.reflect.ClassTag

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
  * Implemented as an iterative RDD algorithm over embeddings and edges
  * partitioned alike: one shuffle (the messages' `groupByKey`) per
  * propagation round.
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

  private val jitter = udf { (s: Long, d: Long) => NameModel.frac(s"jitter:$s:$d") }

  /** A raw structural cosine column of a matrix with `src` and `dst`,
    * calibrated: rescaled below θ1, exact ties broken deterministically in
    * (src, dst).
    */
  def calibrated(score: Column): Column =
    score * CosineScale + jitter(col("src"), col("dst")) * JitterAmp

  /** Calibrate a raw structural cosine matrix (see [[calibrated]]). */
  def calibrate(m: DataFrame): DataFrame =
    m.select(col("src"), col("dst"), calibrated(col("score")).as("score"))

  /** `f` applied to every entry, keeping the RDD's partitioner. */
  private def mapWithKey[V, W: ClassTag](rdd: RDD[(Long, V)])(f: (Long, V) => W)
      : RDD[(Long, W)] =
    rdd.mapPartitions(_.map { case (k, v) => k -> f(k, v) }, preservesPartitioning = true)

  /** Propagate `layers` rounds from anchored initial vectors.
    *
    * The symmetric-normalised adjacency with self-loops,
    * `w(i, j) = 1/sqrt(d_i · d_j)` with `d = degree + 1`, is built once,
    * keyed by the message source and hash-partitioned like the
    * embeddings, so joining it to a round's embeddings moves nothing: each
    * round shuffles only its messages. Anchors are clamped from a
    * broadcast map, and the whole propagation runs as one Spark job that
    * collects the result.
    *
    * @param triples  one KG's triples `(src, rel, dst)`, or the disjoint
    *                 union of both KGs' (see [[embedBoth]])
    * @param universe all entity ids of this KG `(id)` — includes isolated
    *                 entities, which keep their initial vectors
    * @param anchors  `(id, vec)` clamped entities (seed-pair members, plus
    *                 any bootstrapped pairs); vectors are re-imposed after
    *                 every round
    * @param side     1 or 2, or 0 for both (kept for symmetry in call
    *                 sites and logs)
    * @return `(id, vec)` L2-normalised structural embeddings as a local
    *         relation on the driver (nothing to release); entities that no
    *         anchor reaches within `layers` hops stay at the zero vector
    *         (cosine 0 to everything — no signal, no noise)
    */
  def embed(spark: SparkSession, triples: DataFrame, universe: DataFrame,
            anchors: DataFrame, side: Int,
            dim: Int = BenchmarkGen.Dim, layers: Int = DefaultLayers): DataFrame = {
    import spark.implicits._
    val sc = spark.sparkContext
    val byId = new HashPartitioner(sc.defaultParallelism)
    val anchored = sc.broadcast(EntityTables.vectors(anchors))
    val ids = universe.select(col("id")).as[Long].rdd

    // Non-anchored entities start at zero: embeddings are then pure
    // mixtures of anchor directions, with no cross-KG random noise —
    // the label-propagation analogue of the paper's trained alignment.
    // Partitioned like the edges, so round 1's join moves no edge.
    val init = ids.map(id => id -> anchored.value.getOrElse(id, new Array[Double](dim)))
      .partitionBy(byId)

    // Distinct undirected neighbours, self-loops included; each node then
    // tells its neighbours its degree. Messages flow i -> j.
    val neighbours: RDD[(Long, Array[Long])] =
      triples.select(col("src"), col("dst")).as[(Long, Long)].rdd
        .flatMap { case (s, d) => Iterator(s -> d, d -> s) }
        .union(ids.map(id => id -> id))
        .groupByKey(byId)
        .mapValues(_.toArray.distinct.sorted)
    val edges: RDD[(Long, Array[(Long, Double)])] = neighbours
      .flatMap { case (i, ns) => ns.iterator.map(j => j -> (i, ns.length.toLong)) }
      .groupByKey(byId)
      .mapValues { in =>
        val d = in.size.toLong
        in.toArray.sortBy(_._1).map { case (j, dj) => (j, 1.0 / math.sqrt((d * dj).toDouble)) }
      }
      .cache()

    // Each target adds its messages in sender order, so the sums have the
    // same bits whatever the partitioning and the shuffle's fetch order.
    def propagate(emb: RDD[(Long, Array[Double])]): RDD[(Long, Array[Double])] = {
      val received = edges.join(emb)
        .flatMap { case (i, (out, v)) => out.iterator.map { case (j, w) => j -> (i, HashVectors.scale(v, w)) } }
        .groupByKey(byId)
        .mapValues(_.toArray.sortBy(_._1).map(_._2).reduceLeft(HashVectors.add))
      // Isolated entities receive no messages; keep their current vector.
      mapWithKey(emb.leftOuterJoin(received)) { case (id, (old, p)) =>
        anchored.value.getOrElse(id, p.map(HashVectors.normalize).getOrElse(old))
      }
    }

    // Every round but the last is read twice (messages and carry-over),
    // so it is cached; the last is collected.
    val rounds = mutable.Buffer(init.cache())
    for (_ <- 2 to layers) rounds += propagate(rounds.last).cache()
    val out = (if (layers >= 1) propagate(rounds.last) else rounds.last).collect()
    (edges +: rounds).foreach(_.unpersist())
    anchored.destroy()
    EntityTables.relation(spark, out.toMap)
  }

  /** Tags an id column with its KG side, `2·id + side − 1`: the two KGs'
    * ids become disjoint, and each side keeps its id order.
    */
  private def tagged(c: String, side: Int): Column = (col(c) * 2 + (side - 1)).as(c)

  /** Both KGs' embeddings, anchored on `pairs`, from one propagation over
    * the disjoint union of the two graphs. Its adjacency is block-diagonal,
    * so this is two independent propagations; each target still adds its
    * messages in sender order, and tagging keeps that order, so every
    * vector has the bits of the per-side [[embed]].
    */
  def embedBoth(spark: SparkSession, b: EaBenchmark, pairs: DataFrame,
                layers: Int = DefaultLayers): (EntityTables.Vectors, EntityTables.Vectors) = {
    val (a1, a2) = anchors(spark, pairs)
    def both(df1: DataFrame, df2: DataFrame)(cols: Int => Seq[Column]): DataFrame =
      df1.select(cols(1): _*).union(df2.select(cols(2): _*))
    val all = EntityTables.vectors(embed(spark,
      both(b.triples1, b.triples2)(s => Seq(tagged("src", s), tagged("dst", s))),
      both(b.names1, b.names2)(s => Seq(tagged("id", s))),
      both(a1, a2)(s => Seq(tagged("id", s), col("vec"))),
      side = 0, layers = layers))
    def side(tag: Long) = all.collect { case (id, v) if (id & 1) == tag => (id >> 1) -> v }
    (side(0), side(1))
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

  /** Full `M^s` for a benchmark: embed both KGs with seed anchoring in
    * one propagation ([[embedBoth]]) and take cosine similarity over the
    * test domain. The matrix is returned cached and materialised, and the
    * caller owns that cache.
    *
    * @param extraPairs optional additional anchored pairs (bootstrapping
    *                   baselines append confident matches here)
    */
  def matrix(spark: SparkSession, b: EaBenchmark, layers: Int = DefaultLayers,
             extraPairs: Option[DataFrame] = None): DataFrame = {
    val pairs = extraPairs match {
      case Some(p) => b.seeds.union(p.select(col("src"), col("dst"))).distinct()
      case None    => b.seeds
    }
    val (v1, v2) = embedBoth(spark, b, pairs, layers)
    val m = calibrate(SimilarityMatrix.cosines(v1, v2, SimilarityMatrix.testDomain(b.test)))
      .cache()
    m.count()
    m
  }
}
