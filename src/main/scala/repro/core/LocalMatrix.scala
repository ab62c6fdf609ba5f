package repro.core

import java.util.Arrays
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** A similarity matrix on the driver, the one form in which CEAFF builds,
  * fuses, matches and evaluates its matrices: `srcs` are the distinct
  * source ids (rows) and `dsts` the distinct target ids (columns), both
  * ascending, and `score` holds every cell of `srcs` × `dsts` row-major.
  * Cell index order is therefore (src asc, dst asc).
  *
  * Scores compare as Spark compares them: `-0.0` is read as `0.0` (Spark
  * finds them equal in every comparison and sort), and a NaN score is
  * rejected.
  */
final class LocalMatrix(val srcs: Array[Long], val dsts: Array[Long], val score: Array[Double]) {
  require(score.length.toLong == srcs.length.toLong * dsts.length,
    s"${score.length} scores for ${srcs.length} x ${dsts.length} cells")

  def rows: Int = srcs.length
  def cols: Int = dsts.length
  def src(i: Int): Long = srcs(i / cols)
  def dst(i: Int): Long = dsts(i % cols)

  /** The matrix with every cell `(s, d)` scored `f(s, d)` instead, one
    * call per cell on the driver.
    */
  def tabulate(f: (Long, Long) => Double): LocalMatrix =
    new LocalMatrix(srcs, dsts,
      Array.tabulate(score.length)(i => LocalMatrix.checked(src(i), dst(i), f(src(i), dst(i)))))

  /** Every cell as a local relation `(src, dst, score)`, which Spark reads
    * from the driver without a job.
    */
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    score.indices.map(i => (src(i), dst(i), score(i))).toDF("src", "dst", "score")
  }
}

object LocalMatrix {

  /** The cells of `m` `(src, dst, score)`, collected with one Spark job.
    * `m` must hold each cell of its ids' grid exactly once.
    */
  def of(m: DataFrame): LocalMatrix = {
    import m.sparkSession.implicits._
    val cells = m.select(col("src"), col("dst"), col("score")).as[(Long, Long, Double)].collect()
    val out = grid(ids(cells.map(_._1)), ids(cells.map(_._2)), 0.0)
    val seen = new Array[Boolean](out.score.length)
    cells.foreach { case (s, d, v) =>
      val i = Arrays.binarySearch(out.srcs, s) * out.cols + Arrays.binarySearch(out.dsts, d)
      require(!seen(i), s"cell ($s, $d) appears twice")
      seen(i) = true
      out.score(i) = checked(s, d, v)
    }
    val absent = seen.indexOf(false)
    require(absent < 0, s"cell (${out.src(absent)}, ${out.dst(absent)}) is absent")
    out
  }

  /** Every cell of `srcs` × `dsts` (each ascending and distinct), scoring
    * `v`.
    */
  def grid(srcs: Array[Long], dsts: Array[Long], v: Double): LocalMatrix = {
    require(srcs.length.toLong * dsts.length <= Int.MaxValue,
      s"${srcs.length} x ${dsts.length} cells do not fit one driver array")
    new LocalMatrix(srcs, dsts, Array.fill(srcs.length * dsts.length)(v))
  }

  /** Score `v` of cell `(s, d)` as a matrix stores it: NaN is rejected and
    * `-0.0` becomes `0.0`.
    */
  private def checked(s: Long, d: Long, v: Double): Double = {
    require(!v.isNaN, s"NaN score at ($s, $d)")
    v + 0.0
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
