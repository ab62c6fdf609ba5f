package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col, lit}
import repro.kg.EaBenchmark

/** Operations on similarity matrices.
  *
  * A similarity matrix is dense over (source-test × target-test) entities
  * — the paper's `M^s`, `M^n`, `M^l` and their fusions. Rows are source
  * entities, columns target entities; training (seed) entities are
  * excluded, as in the paper (§VII).
  *
  * Every matrix is built, fused, matched and evaluated on the driver, as a
  * [[LocalMatrix]]: its cells are scored there from entity-level tables
  * ([[LocalMatrix.tabulate]] over [[testGrid]]), and the decision steps
  * (row argmax, confident cells, weighted sums) run there on plain arrays.
  * The DataFrame functions take and return the long format `(src: Long,
  * dst: Long, score: Double)`: each collects its input once, runs the
  * driver form, and returns a local relation, which costs no Spark job.
  */
object SimilarityMatrix {

  /** Cosine-similarity matrix between two embedding tables `(id, vec)`
    * over the given `domain` `(src, dst)` universe (typically
    * [[testDomain]]). Pairs whose either side lacks an embedding (or
    * has a zero vector) score 0. The tables and the domain are collected,
    * and the cells scored on the driver.
    */
  def cosineCross(emb1: DataFrame, emb2: DataFrame, domain: DataFrame): DataFrame = {
    val (v1, v2) = (EntityTables.vectors(emb1), EntityTables.vectors(emb2))
    LocalMatrix.of(domain.select(col("src"), col("dst"), lit(0.0).as("score")))
      .tabulate((s, d) => EntityTables.cosine(v1, v2, s, d)).toDF(domain.sparkSession)
  }

  /** The full test domain: test source ids × test target ids (paper: the
    * matrix spans all test entities on both axes), as a DataFrame. The
    * source ids are hash-partitioned by `src` and the target ids are
    * broadcast.
    */
  def testDomain(test: DataFrame): DataFrame =
    test.select(col("src")).repartition(col("src"))
      .crossJoin(broadcast(test.select(col("dst"))))

  /** [[testDomain]] on the driver, from `b`'s test pairs: the sorted test
    * source ids × the sorted test target ids, every cell scoring 0 until it
    * is [[LocalMatrix.tabulate]]d.
    */
  def testGrid(b: EaBenchmark): LocalMatrix =
    LocalMatrix.grid(LocalMatrix.ids(b.testPairs.map(_._1).toArray),
      LocalMatrix.ids(b.testPairs.map(_._2).toArray), 0.0)

  /** Independent (non-collective) decision rule: per source entity take
    * the highest-scoring target; ties broken towards the smallest target
    * id for determinism. Returns `(src, dst)`.
    */
  def greedyMatch(m: DataFrame): DataFrame =
    LocalMatrix.pairsDF(m.sparkSession, rowArgmax(LocalMatrix.of(m)))

  /** [[greedyMatch]] on the driver: one scan of each row, keeping the
    * first (smallest-target) cell of the highest score.
    */
  def rowArgmax(m: LocalMatrix): Seq[(Long, Long)] =
    (0 until m.rows).map { r =>
      val best = (r * m.cols until (r + 1) * m.cols).filter(i => !m.score(i).isNaN)
        .reduce((a, b) => if (m.score(b) > m.score(a)) b else a)
      (m.srcs(r), m.dst(best))
    }

  /** Cells that are the maximum of both their row and their column — the
    * paper's *confident correspondences* for one feature (§V), as indices
    * in (src, dst) order. Ties keep every maximal cell; downstream conflict
    * filtering handles them.
    */
  def confident(m: LocalMatrix): Array[Int] = {
    val rmax = Array.fill(m.rows)(Double.NegativeInfinity)
    val cmax = Array.fill(m.cols)(Double.NegativeInfinity)
    val cells = m.cells
    cells.foreach { i =>
      val v = m.score(i)
      if (v > rmax(i / m.cols)) rmax(i / m.cols) = v
      if (v > cmax(i % m.cols)) cmax(i % m.cols) = v
    }
    cells.filter(i => m.score(i) == rmax(i / m.cols) && m.score(i) == cmax(i % m.cols))
  }

  /** Weighted sum `Σ wᵢ·Mᵢ` of matrices over a shared domain. Missing
    * cells contribute 0, so the result is the union of the inputs'
    * supports.
    */
  def weightedSum(spark: SparkSession, terms: Seq[(DataFrame, Double)]): DataFrame =
    weightedSum(terms.map { case (m, w) => (LocalMatrix.of(m), w) }).toDF(spark)

  /** [[weightedSum]] on the driver. Each cell adds `0.0 + w₁·a + w₂·b + …`
    * over the terms that have it, in term order.
    */
  def weightedSum(terms: Seq[(LocalMatrix, Double)]): LocalMatrix = {
    require(terms.nonEmpty, "weightedSum of no matrices")
    val srcs = LocalMatrix.ids(terms.flatMap(_._1.srcs).toArray)
    val dsts = LocalMatrix.ids(terms.flatMap(_._1.dsts).toArray)
    val out = Array.fill(srcs.length * dsts.length)(Double.NaN)
    for ((m, w) <- terms) {
      val rowOf = m.srcs.map(java.util.Arrays.binarySearch(srcs, _))
      val colOf = m.dsts.map(java.util.Arrays.binarySearch(dsts, _))
      m.cells.foreach { i =>
        val o = rowOf(i / m.cols) * dsts.length + colOf(i % m.cols)
        out(o) = (if (out(o).isNaN) 0.0 else out(o)) + m.score(i) * w
        require(!out(o).isNaN, s"weighted sum is NaN at (${srcs(o / dsts.length)}, ${dsts(o % dsts.length)})")
      }
    }
    new LocalMatrix(srcs, dsts, out)
  }
}
