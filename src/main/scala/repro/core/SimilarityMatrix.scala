package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}

/** Operations on similarity matrices.
  *
  * A similarity matrix is a DataFrame `(src: Long, dst: Long, score:
  * Double)` dense over (source-test × target-test) entities — the paper's
  * `M^s`, `M^n`, `M^l` and their fusions. Rows are source entities,
  * columns target entities; training (seed) entities are excluded, as in
  * the paper (§VII).
  *
  * Only scoring runs on Spark. Every matrix built on [[testDomain]] is
  * hash-partitioned by `src`, and its cells are scored in place against
  * broadcast entity tables ([[EntityTables]]). The decision steps (row
  * argmax, confident cells, weighted sums) collect a matrix to the driver
  * once, as a [[LocalMatrix]], and run there on plain arrays; a matrix or
  * matching they return is a local relation, which costs no Spark job.
  * Each step has a driver form over [[LocalMatrix]] that the pipeline
  * calls directly, so it collects each feature matrix only once.
  */
object SimilarityMatrix {

  /** Cosine-similarity matrix between two embedding tables `(id, vec)`
    * over the given `domain` `(src, dst)` universe (typically
    * [[testDomain]]). Pairs whose either side lacks an embedding (or
    * has a zero vector) score 0.
    */
  def cosineCross(emb1: DataFrame, emb2: DataFrame, domain: DataFrame): DataFrame =
    cosines(EntityTables.vectors(emb1), EntityTables.vectors(emb2), domain)

  /** [[cosineCross]] of embeddings held on the driver: both are broadcast
    * and every cell is scored where it lies, so the matrix keeps the
    * domain's partitioning.
    */
  def cosines(v1: EntityTables.Vectors, v2: EntityTables.Vectors, domain: DataFrame): DataFrame = {
    val t = domain.sparkSession.sparkContext.broadcast((v1, v2))
    domain.select(col("src"), col("dst"),
      EntityTables.cellScore(t) { case ((a, b), s, d) => EntityTables.cosine(a, b, s, d) }.as("score"))
  }

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
    * paper's *confident correspondences* for one feature (§V). Ties keep
    * every maximal cell; downstream conflict filtering handles them.
    */
  def confidentCells(m: DataFrame): DataFrame = {
    val lm = LocalMatrix.of(m)
    lm.toDF(m.sparkSession, confident(lm))
  }

  /** [[confidentCells]] on the driver: the indices of the cells equal to
    * both their row's and their column's maximum, in (src, dst) order.
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
