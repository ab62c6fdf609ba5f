package repro

import org.apache.spark.sql.DataFrame

/** Small helpers shared by the Spark test suites. */
trait Fixtures { self: SparkSpec =>

  /** Similarity matrix DataFrame from literal cells. */
  def mat(cells: Seq[(Long, Long, Double)]): DataFrame = {
    import spark.implicits._
    cells.toDF("src", "dst", "score")
  }

  /** Dense matrix from a 2-D array: `m(i)(j)` is the score of (i, j). */
  def denseMat(m: Seq[Seq[Double]]): DataFrame =
    mat(for {
      (row, i) <- m.zipWithIndex
      (v, j) <- row.zipWithIndex
    } yield (i.toLong, j.toLong, v))

  /** A names table `(id, name, tokens)`, each name tokenised on spaces. */
  def namesTable(ns: (Long, String)*): DataFrame = {
    import spark.implicits._
    ns.map { case (id, n) => (id, n, n.split(" ").toSeq) }.toDF("id", "name", "tokens")
  }

  /** Collect a matching `(src, dst)` DataFrame to a map. */
  def matchMap(df: DataFrame): Map[Long, Long] = {
    import spark.implicits._
    df.select("src", "dst").as[(Long, Long)].collect().toMap
  }

  /** Collect matrix cells. */
  def cells(df: DataFrame): Seq[(Long, Long, Double)] = {
    import spark.implicits._
    df.select("src", "dst", "score").as[(Long, Long, Double)].collect().toSeq
  }
}
