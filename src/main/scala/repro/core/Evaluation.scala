package repro.core

import org.apache.spark.sql.DataFrame
import repro.kg.EaBenchmark

/** Ranking metrics for the independent-decision evaluation (Table VI). */
final case class RankingMetrics(hitsAt1: Double, hitsAt10: Double, mrr: Double)

/** Evaluation metrics (paper §VII-A).
  *
  * The paper's main metric is *accuracy*: correctly aligned source
  * entities over all test source entities. For methods that output ranked
  * lists (everything except collective CEAFF) Hits@k and MRR are also
  * reported.
  */
object Evaluation {

  /** Accuracy of a matching `(src, dst)` against gold test pairs
    * `(src, dst)`: the share of gold pairs that are in the matching.
    * Unmatched sources count as wrong.
    */
  def accuracy(matching: Seq[(Long, Long)], gold: Seq[(Long, Long)]): Double = {
    require(gold.nonEmpty, "empty gold set")
    val hit = matching.toSet
    gold.count(hit).toDouble / gold.length
  }

  /** [[accuracy]] of a matching table against a gold table, both collected
    * to the driver.
    */
  def accuracy(matches: DataFrame, gold: DataFrame): Double =
    accuracy(EaBenchmark.pairs(matches), EaBenchmark.pairs(gold))

  /** Hits@1, Hits@10 and MRR of a similarity matrix w.r.t. gold pairs.
    * The rank of a gold target is its 1-based position in the source's
    * row ordered by descending score (ties by ascending target id). A
    * gold pair outside the matrix's grid counts as an infinite rank. The
    * reciprocal ranks add in gold (src, dst) order.
    */
  def rankingMetrics(m: LocalMatrix, gold: Seq[(Long, Long)]): RankingMetrics = {
    val g = gold.sorted
    require(g.nonEmpty, "empty gold set")
    val ranks = g.flatMap { case (s, d) => rank(m, s, d) }
    RankingMetrics(
      hitsAt1 = ranks.count(_ <= 1).toDouble / g.length,
      hitsAt10 = ranks.count(_ <= 10).toDouble / g.length,
      mrr = ranks.foldLeft(0.0)(_ + 1.0 / _) / g.length)
  }

  /** [[rankingMetrics]] of a matrix `(src, dst, score)` against a gold
    * table, both collected to the driver.
    */
  def rankingMetrics(m: DataFrame, gold: DataFrame): RankingMetrics =
    rankingMetrics(LocalMatrix.of(m), EaBenchmark.pairs(gold))

  /** The rank of cell `(s, d)` in its row of `m`, if the cell is in `m`'s
    * grid.
    */
  private def rank(m: LocalMatrix, s: Long, d: Long): Option[Int] = {
    val r = java.util.Arrays.binarySearch(m.srcs, s)
    val c = java.util.Arrays.binarySearch(m.dsts, d)
    if (r < 0 || c < 0) None
    else {
      val v = m.score(r * m.cols + c)
      Some(1 + (0 until m.cols).count { j =>
        val x = m.score(r * m.cols + j)
        x > v || (x == v && j < c)
      })
    }
  }
}
