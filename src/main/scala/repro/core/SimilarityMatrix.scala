package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
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
  *
  * Every matrix built on [[testDomain]] is hash-partitioned by `src`: its
  * cells are joined only to broadcast entity tables, which keep that
  * partitioning. Row-wise steps (weighted sums, row argmax, ranks, row
  * maxima) then run without moving cells.
  */
object SimilarityMatrix {

  private val cos = udf { (a: Seq[Double], b: Seq[Double]) =>
    if (a == null || b == null) 0.0
    else HashVectors.cosine(a.toArray, b.toArray)
  }

  /** Add to `cells` (which has `src` and `dst`) a column `name` with the
    * cosine of the two embeddings `(id, vec)`. Both tables are broadcast,
    * so the cells keep their partitioning; a side that lacks an embedding
    * (or has a zero vector) scores 0.
    */
  def withCosine(cells: DataFrame, emb1: DataFrame, emb2: DataFrame, name: String): DataFrame = {
    val (v1, v2) = (s"${name}_v1", s"${name}_v2")
    cells
      .join(broadcast(emb1.select(col("id").as("src"), col("vec").as(v1))), Seq("src"), "left")
      .join(broadcast(emb2.select(col("id").as("dst"), col("vec").as(v2))), Seq("dst"), "left")
      .withColumn(name, cos(col(v1), col(v2)))
      .drop(v1, v2)
  }

  /** Cosine-similarity matrix between two embedding tables `(id, vec)`
    * over the given `domain` `(src, dst)` universe (typically
    * [[testDomain]]). Pairs whose either side lacks an embedding (or
    * has a zero vector) score 0.
    */
  def cosineCross(emb1: DataFrame, emb2: DataFrame, domain: DataFrame): DataFrame =
    withCosine(domain.select(col("src"), col("dst")), emb1, emb2, "score")
      .select(col("src"), col("dst"), col("score"))

  /** The full test domain: test source ids × test target ids (paper: the
    * matrix spans all test entities on both axes). The source ids are
    * hash-partitioned by `src` once and the target ids are broadcast, so
    * every matrix built on this domain shares that partitioning.
    */
  def testDomain(test: DataFrame): DataFrame =
    test.select(col("src")).repartition(col("src"))
      .crossJoin(broadcast(test.select(col("dst"))))

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
    * every maximal cell; downstream conflict filtering handles them. The
    * row maximum is taken first, within the `src` partitions; only the
    * column maximum moves cells.
    */
  def confidentCells(m: DataFrame): DataFrame = {
    def maxOver(key: String): Column = max("score").over(Window.partitionBy(key))
    m.select(col("src"), col("dst"), col("score"), maxOver("src").as("rmax"))
      .withColumn("cmax", maxOver("dst"))
      .filter(col("score") === col("rmax") && col("score") === col("cmax"))
      .select(col("src"), col("dst"), col("score"))
  }

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
