package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.kg.EaBenchmark

/** String feature `M^l`: Levenshtein ratio between entity names (paper
  * §IV-C), with substitution cost 2 (`lev*`), computed over the test
  * domain on the driver.
  */
object StringFeature {

  /** Full `M^l` for a benchmark: both name tables are collected, and every
    * cell of the test domain is scored on the driver.
    */
  def matrix(spark: SparkSession, b: EaBenchmark): DataFrame = {
    val (n1, n2) = (EntityTables.names(b.names1), EntityTables.names(b.names2))
    SimilarityMatrix.testGrid(b.test).tabulate((s, d) => EntityTables.ratio(n1, n2, s, d)).toDF(spark)
  }
}
