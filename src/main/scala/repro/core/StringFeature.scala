package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kg.EaBenchmark

/** String feature `M^l`: Levenshtein ratio between entity names (paper
  * §IV-C), with substitution cost 2 (`lev*`), computed over the test
  * domain against the broadcast name tables.
  */
object StringFeature {

  /** Full `M^l` for a benchmark: both name tables are collected and
    * broadcast, and every cell of the test domain is scored where it lies.
    */
  def matrix(spark: SparkSession, b: EaBenchmark): DataFrame = {
    val t = spark.sparkContext.broadcast(
      (EntityTables.names(b.names1), EntityTables.names(b.names2)))
    SimilarityMatrix.testDomain(b.test).select(col("src"), col("dst"),
      EntityTables.cellScore(t) { case ((n1, n2), s, d) => EntityTables.ratio(n1, n2, s, d) }.as("score"))
  }
}
