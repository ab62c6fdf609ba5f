package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.text.HashVectors

/** Operations on similarity matrices.
  *
  * A similarity matrix is a DataFrame `(src: Long, dst: Long, score:
  * Double)` dense over (source-test × target-test) entities — the paper's
  * `M^s`, `M^n`, `M^l` and their fusions. Rows are source entities,
  * columns target entities; training (seed) entities are excluded, as in
  * the paper (§VII).
  */
object SimilarityMatrix {

  /** Cosine-similarity matrix between two embedding tables `(id, vec)`
    * over the given `domain` `(src, dst)` universe (typically
    * testSrc × testDst). Pairs whose either side lacks an embedding (or
    * has a zero vector) score 0.
    */
  def cosineCross(emb1: DataFrame, emb2: DataFrame, domain: DataFrame): DataFrame = {
    val cos = udf { (a: Seq[Double], b: Seq[Double]) =>
      if (a == null || b == null) 0.0
      else HashVectors.cosine(a.toArray, b.toArray)
    }
    domain.select(col("src"), col("dst"))
      .join(emb1.select(col("id").as("src"), col("vec").as("v1")), Seq("src"), "left")
      .join(emb2.select(col("id").as("dst"), col("vec").as("v2")), Seq("dst"), "left")
      .select(col("src"), col("dst"), cos(col("v1"), col("v2")).as("score"))
  }

  /** The full test domain: cross join of test source ids × test target
    * ids (paper: the matrix spans all test entities on both axes).
    * Each side is coalesced first — a k×k-partition cartesian product of
    * two small id lists would otherwise explode into k² near-empty tasks.
    */
  def testDomain(test: DataFrame): DataFrame =
    test.select(col("src")).coalesce(2)
      .crossJoin(test.select(col("dst")).coalesce(2))

  /** Independent (non-collective) decision rule: per source entity take
    * the highest-scoring target; ties broken towards the smallest target
    * id for determinism. Returns `(src, dst)`.
    */
  def greedyMatch(m: DataFrame): DataFrame = {
    val w = Window.partitionBy("src").orderBy(desc("score"), asc("dst"))
    m.withColumn("rn", row_number().over(w))
      .filter(col("rn") === 1)
      .select(col("src"), col("dst"))
  }

  /** Cells that are the maximum of both their row and their column — the
    * paper's *confident correspondences* for one feature (§V). Ties keep
    * every maximal cell; downstream conflict filtering handles them.
    */
  def confidentCells(m: DataFrame): DataFrame =
    m.select(col("src"), col("dst"), col("score"),
        max("score").over(Window.partitionBy("src")).as("rmax"),
        max("score").over(Window.partitionBy("dst")).as("cmax"))
      .filter(col("score") === col("rmax") && col("score") === col("cmax"))
      .select(col("src"), col("dst"), col("score"))

  /** Weighted sum `Σ wᵢ·Mᵢ` of matrices over a shared domain. Missing
    * cells contribute 0, so the result is the union of the inputs'
    * supports.
    */
  def weightedSum(spark: SparkSession, terms: Seq[(DataFrame, Double)]): DataFrame = {
    require(terms.nonEmpty, "weightedSum of no matrices")
    terms.map { case (m, w) =>
      m.select(col("src"), col("dst"), (col("score") * lit(w)).as("score"))
    }.reduce(_ union _)
      .groupBy("src", "dst")
      .agg(sum("score").as("score"))
  }
}
