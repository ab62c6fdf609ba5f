package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, EaBenchmark, NameModel}
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
  * The propagation ([[propagate]]) and the scoring of the matrix's cells
  * both run on the driver.
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

  /** A raw structural cosine of cell `(s, d)`, calibrated: rescaled below
    * θ1, exact ties broken deterministically in (src, dst).
    */
  def calibrated(raw: Double, s: Long, d: Long): Double =
    raw * CosineScale + NameModel.frac(s"jitter:$s:$d") * JitterAmp

  /** Calibrate a raw structural cosine matrix `(src, dst, score)` (see
    * [[calibrated]]).
    */
  def calibrate(m: DataFrame): DataFrame =
    m.select(col("src"), col("dst"),
      udf(calibrated _).apply(col("score"), col("src"), col("dst")).as("score"))

  /** Propagate `layers` rounds from anchored initial vectors, on the
    * driver.
    *
    * Each entity's neighbours are its distinct undirected neighbours in
    * `edges` plus itself, and `w(i, j) = 1/sqrt(d_i · d_j)` with `d` the
    * number of neighbours. Degrees count every endpoint of `edges`, but
    * only entities of `ids` send messages. Each entity adds its messages
    * in ascending sender id and L2-normalises the sum; anchors are
    * re-imposed after every round.
    *
    * @param edges    one KG's triples as `(src, dst)`
    * @param ids      every entity of the KG, isolated ones included
    * @param anchored clamped entities (seed-pair members, plus any
    *                 bootstrapped pairs) and their vectors
    * @return L2-normalised embeddings of `ids`; entities that no anchor
    *         reaches within `layers` hops stay at the zero vector (cosine
    *         0 to everything — no signal, no noise)
    */
  def propagate(edges: Iterable[(Long, Long)], ids: Iterable[Long],
                anchored: EntityTables.Vectors, dim: Int, layers: Int): EntityTables.Vectors = {
    val neighbours: Map[Long, Array[Long]] =
      (edges.flatMap { case (s, d) => Seq(s -> d, d -> s) } ++ ids.map(id => id -> id))
        .groupMap(_._1)(_._2).map { case (i, ns) => i -> ns.toArray.distinct.sorted }
    def degree(i: Long): Long = neighbours(i).length.toLong
    // Non-anchored entities start at zero: embeddings are then pure
    // mixtures of anchor directions, with no cross-KG random noise —
    // the label-propagation analogue of the paper's trained alignment.
    val init = ids.map(id => id -> anchored.getOrElse(id, new Array[Double](dim))).toMap
    def round(emb: EntityTables.Vectors): EntityTables.Vectors = emb.map { case (i, _) =>
      i -> anchored.getOrElse(i, HashVectors.normalize(neighbours(i).iterator.filter(emb.contains)
        .map(j => HashVectors.scale(emb(j), 1.0 / math.sqrt((degree(j) * degree(i)).toDouble)))
        .reduceLeft(HashVectors.add)))
    }
    Iterator.iterate(init)(round).drop(layers).next()
  }

  /** [[propagate]] over one KG's Spark tables.
    *
    * @param triples  one KG's triples `(src, rel, dst)`
    * @param universe all entity ids of this KG `(id)`
    * @param anchors  `(id, vec)` clamped entities
    * @param side     1 or 2; names the KG at call sites, and the result
    *                 does not depend on it
    * @return `(id, vec)` structural embeddings as a local relation on the
    *         driver (nothing to release)
    */
  def embed(spark: SparkSession, triples: DataFrame, universe: DataFrame,
            anchors: DataFrame, side: Int,
            dim: Int = BenchmarkGen.Dim, layers: Int = DefaultLayers): DataFrame = {
    import spark.implicits._
    val edges = triples.select(col("src"), col("dst")).as[(Long, Long)].collect()
    val ids = universe.select(col("id")).as[Long].collect()
    EntityTables.relation(spark, propagate(edges, ids, EntityTables.vectors(anchors), dim, layers))
  }

  /** Both KGs' embeddings, anchored on `pairs`, from one collect of both
    * KGs' edges and one [[propagate]] per side: every vector has the bits
    * of the per-side [[embed]].
    *
    * @param ids1 every entity of KG 1; `ids2` likewise
    */
  def embedBoth(spark: SparkSession, b: EaBenchmark, pairs: Iterable[(Long, Long)],
                ids1: Iterable[Long], ids2: Iterable[Long],
                layers: Int = DefaultLayers): (EntityTables.Vectors, EntityTables.Vectors) = {
    import spark.implicits._
    val dim = BenchmarkGen.Dim
    def withSide(t: DataFrame, s: Int) = t.select(lit(s), col("src"), col("dst"))
    val edges = withSide(b.triples1, 1).union(withSide(b.triples2, 2))
      .as[(Int, Long, Long)].collect()
    val anchored = pairs.map { case (u, v) => (u, v, anchorVector(u, v, dim)) }
    def side(s: Int, ids: Iterable[Long], a: EntityTables.Vectors) =
      propagate(edges.collect { case (`s`, u, v) => (u, v) }, ids, a, dim, layers)
    (side(1, ids1, anchored.map { case (u, _, x) => u -> x }.toMap),
     side(2, ids2, anchored.map { case (_, v, x) => v -> x }.toMap))
  }

  /** The anchor vector a seed pair `(u, v)` shares on both sides. */
  private def anchorVector(u: Long, v: Long, dim: Int): Array[Double] =
    HashVectors.unitGaussian(s"pair:$u:$v", dim)

  /** Anchor tables for the two sides: each seed pair `(u, v)` shares one
    * deterministic unit vector keyed by the pair.
    */
  def anchors(spark: SparkSession, pairs: DataFrame, dim: Int = BenchmarkGen.Dim)
      : (DataFrame, DataFrame) = {
    import spark.implicits._
    val withVec = pairs.select(col("src"), col("dst")).as[(Long, Long)]
      .map { case (u, v) => (u, v, anchorVector(u, v, dim).toSeq) }
      .toDF("src", "dst", "vec")
    (withVec.select(col("src").as("id"), col("vec")),
     withVec.select(col("dst").as("id"), col("vec")))
  }

  /** Full `M^s` for a benchmark: embed both KGs with seed anchoring
    * ([[embedBoth]]) and take the calibrated cosine similarity over the
    * test domain, on the driver.
    *
    * @param extraPairs additional anchored pairs (bootstrapping baselines
    *                   append confident matches here)
    */
  def matrix(spark: SparkSession, b: EaBenchmark, layers: Int = DefaultLayers,
             extraPairs: Iterable[(Long, Long)] = Nil): LocalMatrix = {
    import spark.implicits._
    def ids(names: DataFrame) = names.select(col("id")).as[Long].collect()
    val seeds = b.seeds.select(col("src"), col("dst")).as[(Long, Long)].collect()
    val (v1, v2) = embedBoth(spark, b, seeds ++ extraPairs, ids(b.names1), ids(b.names2), layers)
    SimilarityMatrix.testGrid(b.test).tabulate((s, d) => calibrated(EntityTables.cosine(v1, v2, s, d), s, d))
  }
}
