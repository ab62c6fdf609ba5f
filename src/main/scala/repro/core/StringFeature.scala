package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import repro.kg.EaBenchmark
import repro.text.Levenshtein

/** String feature `M^l`: Levenshtein ratio between entity names (paper
  * §IV-C), with substitution cost 2 (`lev*`), computed over the test
  * domain against the broadcast name tables.
  */
object StringFeature {

  /** Add to `cells` (which has `src` and `dst`) a column `name` with the
    * Levenshtein ratio of the two entities' names. The name tables are
    * broadcast, so the cells keep their partitioning.
    */
  def withRatio(cells: DataFrame, b: EaBenchmark, name: String): DataFrame = {
    val (n1, n2) = (s"${name}_n1", s"${name}_n2")
    cells
      .join(broadcast(b.names1.select(col("id").as("src"), col("name").as(n1))), Seq("src"))
      .join(broadcast(b.names2.select(col("id").as("dst"), col("name").as(n2))), Seq("dst"))
      .withColumn(name, Levenshtein.ratioUdf(col(n1), col(n2)))
      .drop(n1, n2)
  }

  /** Full `M^l` for a benchmark. */
  def matrix(spark: SparkSession, b: EaBenchmark): DataFrame =
    withRatio(SimilarityMatrix.testDomain(b.test), b, "score")
      .select(col("src"), col("dst"), col("score"))
}
