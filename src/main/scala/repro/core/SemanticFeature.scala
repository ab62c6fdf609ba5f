package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.text.HashVectors

/** Semantic feature `M^n`: averaged word embeddings of entity names
  * (paper §IV-B), cosine similarity over the test domain
  * (`SimilarityMatrix.cosineCross` of the two sides' name embeddings).
  *
  * `ne(e) = (1/l) Σ w_i` over the in-dictionary tokens of `e`'s name;
  * out-of-vocabulary tokens are skipped (the paper's stated limitation of
  * the semantic feature), and an entity whose tokens are all OOV gets a
  * zero vector, i.e. similarity 0 to everything.
  */
object SemanticFeature {

  /** Name embeddings `(id, vec)` for one KG side. The dictionary holds
    * one vector per token, so it is broadcast as a map and each name is
    * averaged where it lies, adding its token vectors in token order: no
    * shuffle, and the same bits whatever the partitioning. Entities with
    * no in-dictionary token are kept with a zero vector so the matrix
    * stays dense. The returned plan holds the broadcast; Spark's context
    * cleaner releases it with the plan.
    */
  def nameEmbeddings(spark: SparkSession, names: DataFrame, dict: DataFrame,
                     dim: Int): DataFrame = {
    import spark.implicits._
    val vectors = spark.sparkContext.broadcast(
      dict.select(col("token"), col("vec")).as[(String, Seq[Double])].collect()
        .map { case (t, v) => t -> v.toArray }.toMap)
    names.select(col("id"), col("tokens")).as[(Long, Seq[String])]
      .map { case (id, tokens) =>
        val found = tokens.flatMap(vectors.value.get) // OOV tokens drop out
        val avg =
          if (found.isEmpty) new Array[Double](dim)
          else HashVectors.scale(found.reduceLeft(HashVectors.add), 1.0 / found.size)
        (id, avg.toSeq)
      }
      .toDF("id", "vec")
  }
}
