package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

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
    * `(src, dst)`: the share of gold rows whose pair is in the matching.
    * Unmatched sources count as wrong. The matching's distinct pairs are
    * broadcast, so one pass over the gold rows counts them and their hits.
    */
  def accuracy(matches: DataFrame, gold: DataFrame): Double = {
    val hits = broadcast(matches.select(col("src"), col("dst"), lit(true).as("hit")).distinct())
    val r = gold.select(col("src"), col("dst"))
      .join(hits, Seq("src", "dst"), "left")
      .agg(count(lit(1)), count(col("hit")))
      .first()
    val total = r.getLong(0)
    require(total > 0, "empty gold set")
    r.getLong(1).toDouble / total
  }

  /** Hits@1, Hits@10 and MRR of a similarity matrix w.r.t. gold pairs.
    * The rank of a gold target is its 1-based position in the source's
    * row ordered by descending score (ties by ascending target id). A
    * gold pair absent from the matrix counts as an infinite rank. The
    * ranks are taken within the matrix's `src` partitions and joined to
    * the broadcast gold pairs.
    */
  def rankingMetrics(m: DataFrame, gold: DataFrame): RankingMetrics = {
    val w = Window.partitionBy("src").orderBy(desc("score"), asc("dst"))
    val ranked = m.withColumn("rank", row_number().over(w))
    val total = gold.count()
    require(total > 0, "empty gold set")
    // Gold pairs absent from the matrix add nothing to any sum.
    val agg = ranked.join(broadcast(gold.select(col("src"), col("dst"))), Seq("src", "dst"))
      .agg(
        count(when(col("rank") <= 1, 1)).as("h1"),
        count(when(col("rank") <= 10, 1)).as("h10"),
        coalesce(sum(lit(1.0) / col("rank")), lit(0.0)).as("rr"))
      .first()
    RankingMetrics(
      hitsAt1 = agg.getLong(0).toDouble / total,
      hitsAt10 = agg.getLong(1).toDouble / total,
      mrr = agg.getDouble(2) / total)
  }
}
