package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.text.HashVectors

/** Semantic feature `M^n`: averaged word embeddings of entity names
  * (paper §IV-B), cosine similarity over the test domain
  * ([[EntityTables.score]] of the two sides' name embeddings).
  *
  * `ne(e) = (1/l) Σ w_i` over the in-dictionary tokens of `e`'s name;
  * out-of-vocabulary tokens are skipped (the paper's stated limitation of
  * the semantic feature), and an entity whose tokens are all OOV gets a
  * zero vector, i.e. similarity 0 to everything.
  */
object SemanticFeature {

  /** Name embeddings `(id, vec)` for one KG side ([[embedNames]]), as a
    * local relation.
    */
  def nameEmbeddings(spark: SparkSession, names: DataFrame, dict: DataFrame,
                     dim: Int): DataFrame =
    EntityTables.relation(spark, embedNames(names, dict, dim)._1)

  /** One KG side's name embeddings and names, from one collect of the
    * names and one of the dictionary. Each name is averaged on the driver
    * ([[average]]); entities with no in-dictionary token are kept with a
    * zero vector so the matrix stays dense.
    */
  def embedNames(names: DataFrame, dict: DataFrame, dim: Int): (EntityTables.Vectors, Map[Long, String]) = {
    import names.sparkSession.implicits._
    val vectors = dictionary(dict)
    val rows = names.select(col("id"), col("name"), col("tokens")).as[(Long, String, Seq[String])].collect()
    (rows.map { case (id, _, t) => id -> average(t, vectors, dim) }.toMap,
     rows.map { case (id, n, _) => id -> n }.toMap)
  }

  /** A dictionary `(token, vec)` collected to the driver. */
  private def dictionary(dict: DataFrame): Map[String, Array[Double]] = {
    import dict.sparkSession.implicits._
    dict.select(col("token"), col("vec")).as[(String, Seq[Double])].collect()
      .map { case (t, v) => t -> v.toArray }.toMap
  }

  /** The average of a name's in-dictionary token vectors, added in token
    * order; the zero vector when every token is out of vocabulary.
    */
  def average(tokens: Seq[String], vectors: Map[String, Array[Double]], dim: Int): Array[Double] = {
    val found = tokens.flatMap(vectors.get) // OOV tokens drop out
    if (found.isEmpty) new Array[Double](dim)
    else HashVectors.scale(found.reduceLeft(HashVectors.add), 1.0 / found.size)
  }
}
