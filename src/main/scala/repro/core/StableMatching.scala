package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** Collective EA as the Stable Matching Problem (paper §VI).
  *
  * Preference lists on both sides come from the fused similarity matrix:
  * a source entity prefers targets by descending score; a target prefers
  * proposers by descending score of the same cell. Ties are broken by
  * ascending id on both sides, making preferences strict and the stable
  * matching unique — so [[daa]] and the Gale–Shapley [[referenceDaa]]
  * must agree exactly, which the tests check.
  */
object StableMatching {

  /** Deferred acceptance on a similarity matrix, as one sorted scan.
    *
    * In CEAFF both sides rank by the *same* matrix cell values (a source
    * prefers targets by `M(u,v)`, a target prefers sources by the same
    * `M(u,v)`), with ties broken by ascending opposite-side id. Under
    * these aligned preferences, take the cells in the global order
    * (score desc, src asc, dst asc). The first cell `(u,v)` whose source
    * and target are both still unmatched is mutual-best: every other
    * remaining cell of row `u` or column `v` comes later in that order,
    * so it has a lower score or loses the id tie-break. A mutual-best
    * pair blocks every matching that omits it, so it belongs to every
    * stable matching. Matching it and repeating on the rest gives the
    * unique stable matching, which is the greedy matching in global
    * order: the matrix is collected once, then sorted and scanned on the
    * driver ([[deferredAcceptance]]).
    *
    * @param m similarity matrix `(src, dst, score)`, a full grid
    * @return matches `(src, dst)`, `min(#src, #dst)` of them
    */
  def daa(spark: SparkSession, m: DataFrame): DataFrame =
    LocalMatrix.pairsDF(spark, deferredAcceptance(LocalMatrix.of(m)))

  /** [[daa]] on the driver, in match order. */
  def deferredAcceptance(m: LocalMatrix): Seq[(Long, Long)] = {
    // A cell index already orders (src asc, dst asc). The high half of its
    // sort key is a position of its score among all scores sorted: equal
    // scores find the same position, higher scores a later one.
    val scores = m.score.clone()
    java.util.Arrays.sort(scores)
    val keys = Array.tabulate(scores.length) { i =>
      (scores.length - 1 - java.util.Arrays.binarySearch(scores, m.score(i)).toLong) << 32 | i
    }
    java.util.Arrays.sort(keys)
    val srcMatched = new Array[Boolean](m.rows)
    val dstMatched = new Array[Boolean](m.cols)
    val matched = Seq.newBuilder[(Long, Long)]
    keys.foreach { key =>
      val i = key.toInt
      val (r, c) = (i / m.cols, i % m.cols)
      if (!srcMatched(r) && !dstMatched(c)) {
        srcMatched(r) = true; dstMatched(c) = true
        matched += ((m.srcs(r), m.dsts(c)))
      }
    }
    matched.result()
  }

  /** Sequential Gale–Shapley on the driver with identical tie-breaking —
    * the correctness oracle for [[daa]] and a fast path for tests.
    */
  def referenceDaa(cells: Seq[(Long, Long, Double)]): Map[Long, Long] = {
    val prefs: Map[Long, Array[(Long, Double)]] =
      cells.groupBy(_._1).map { case (s, rows) =>
        s -> rows.map { case (_, d, sc) => (d, sc) }.sortBy { case (d, sc) => (-sc, d) }.toArray
      }
    val score: Map[(Long, Long), Double] =
      cells.map { case (s, d, sc) => (s, d) -> sc }.toMap

    val next = mutable.Map.empty[Long, Int].withDefaultValue(0)
    val engagedTo = mutable.Map.empty[Long, Long] // dst -> src
    val free = mutable.Queue.empty[Long]
    free ++= prefs.keys.toSeq.sorted

    while (free.nonEmpty) {
      val u = free.dequeue()
      val list = prefs(u)
      if (next(u) < list.length) {
        val (v, sc) = list(next(u))
        next(u) += 1
        engagedTo.get(v) match {
          case None => engagedTo(v) = u
          case Some(cur) =>
            val curSc = score((cur, v))
            val newWins = sc > curSc || (sc == curSc && u < cur)
            if (newWins) { engagedTo(v) = u; free.enqueue(cur) }
            else free.enqueue(u)
        }
      } // else: exhausted list, stays unmatched
    }
    engagedTo.map { case (v, u) => u -> v }.toMap
  }

  /** Blocking pairs of a matching under the matrix's preferences — empty
    * iff the matching is stable. Exposed for property tests.
    */
  def blockingPairs(cells: Seq[(Long, Long, Double)],
                    matching: Map[Long, Long]): Seq[(Long, Long)] = {
    val score = cells.map { case (s, d, sc) => (s, d) -> sc }.toMap
    val partnerOfDst = matching.map(_.swap)
    def srcPrefers(u: Long, v: Long): Boolean = matching.get(u) match {
      case None => true // unmatched source prefers anyone it can score
      case Some(cur) =>
        val a = score((u, v)); val b = score((u, cur))
        a > b || (a == b && v < cur)
    }
    def dstPrefers(v: Long, u: Long): Boolean = partnerOfDst.get(v) match {
      case None => true
      case Some(cur) =>
        val a = score((u, v)); val b = score((cur, v))
        a > b || (a == b && u < cur)
    }
    cells.collect {
      case (u, v, _) if matching.get(u) != Some(v) && srcPrefers(u, v) && dstPrefers(v, u) =>
        (u, v)
    }
  }
}
