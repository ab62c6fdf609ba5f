package repro.core

import java.util.Arrays
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** A similarity matrix on the driver, where CEAFF's decision stage (fusion,
  * matching, evaluation) runs: `srcs` are the distinct source ids (rows)
  * and `dsts` the distinct target ids (columns), both ascending, and
  * `score` holds the cells row-major. A cell absent from the matrix holds
  * NaN. Cell index order is therefore (src asc, dst asc).
  *
  * Scores compare as Spark compares them: `-0.0` is read as `0.0` (Spark
  * finds them equal in every comparison and sort), and a NaN score is
  * rejected.
  */
final class LocalMatrix(val srcs: Array[Long], val dsts: Array[Long], val score: Array[Double]) {
  def rows: Int = srcs.length
  def cols: Int = dsts.length
  def src(i: Int): Long = srcs(i / cols)
  def dst(i: Int): Long = dsts(i % cols)

  /** Indices of the cells present in the matrix, in (src, dst) order. */
  def cells: Array[Int] = Array.range(0, score.length).filter(i => !score(i).isNaN)

  /** The cells `is` as a local relation `(src, dst, score)`, which Spark
    * reads from the driver without a job.
    */
  def toDF(spark: SparkSession, is: Array[Int] = cells): DataFrame = {
    import spark.implicits._
    is.toSeq.map(i => (src(i), dst(i), score(i))).toDF("src", "dst", "score")
  }
}

object LocalMatrix {

  /** The cells of `m` `(src, dst, score)`, collected with one Spark job. */
  def of(m: DataFrame): LocalMatrix = {
    import m.sparkSession.implicits._
    val cells = m.select(col("src"), col("dst"), col("score")).as[(Long, Long, Double)].collect()
    val srcs = ids(cells.map(_._1))
    val dsts = ids(cells.map(_._2))
    require(srcs.length.toLong * dsts.length <= Int.MaxValue,
      s"${srcs.length} x ${dsts.length} cells do not fit one driver array")
    val score = Array.fill(srcs.length * dsts.length)(Double.NaN)
    cells.foreach { case (s, d, v) =>
      require(!v.isNaN, s"NaN score at ($s, $d)")
      val i = Arrays.binarySearch(srcs, s) * dsts.length + Arrays.binarySearch(dsts, d)
      require(score(i).isNaN, s"cell ($s, $d) appears twice")
      score(i) = v + 0.0 // turns -0.0 into 0.0
    }
    new LocalMatrix(srcs, dsts, score)
  }

  /** The distinct values of `xs`, ascending. */
  def ids(xs: Array[Long]): Array[Long] = {
    val s = xs.clone()
    Arrays.sort(s)
    var n = 0
    var i = 0
    while (i < s.length) {
      if (n == 0 || s(n - 1) != s(i)) { s(n) = s(i); n += 1 }
      i += 1
    }
    Arrays.copyOf(s, n)
  }

  /** A matching `(src, dst)` as a local relation. */
  def pairsDF(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    pairs.toDF("src", "dst")
  }
}
