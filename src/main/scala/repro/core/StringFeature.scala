package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.kg.EaBenchmark

/** String feature `M^l`: Levenshtein ratio between entity names (paper
  * §IV-C), with substitution cost 2 (`lev*`), computed over the test
  * domain on the driver.
  */
object StringFeature {

  /** Full `M^l` for a benchmark: every cell of the test domain scored on
    * the driver from `b`'s names.
    */
  def matrix(spark: SparkSession, b: EaBenchmark): DataFrame =
    EntityTables.ratios(b.labels1, b.labels2).matrix(SimilarityMatrix.testGrid(b)).toDF(spark)
}
