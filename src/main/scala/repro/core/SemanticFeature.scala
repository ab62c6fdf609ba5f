package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.kg.{EaBenchmark, Label}
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

  /** Name embeddings `(id, vec)` for one KG side ([[embedNames]]) from its
    * names and dictionary tables, as a local relation.
    */
  def nameEmbeddings(spark: SparkSession, names: DataFrame, dict: DataFrame,
                     dim: Int): DataFrame =
    EntityTables.relation(spark, embedNames(EaBenchmark.labels(names), EaBenchmark.dictionary(dict), dim))

  /** One KG side's name embeddings, each name averaged on the driver
    * ([[average]]); entities with no in-dictionary token are kept with a
    * zero vector so the matrix stays dense.
    */
  def embedNames(labels: Map[Long, Label], dictionary: Map[String, Array[Double]],
                 dim: Int): EntityTables.Vectors =
    labels.map { case (id, l) => id -> average(l.tokens, dictionary, dim) }

  /** The average of a name's in-dictionary token vectors, added in token
    * order; the zero vector when every token is out of vocabulary.
    */
  def average(tokens: Seq[String], vectors: Map[String, Array[Double]], dim: Int): Array[Double] = {
    val found = tokens.flatMap(vectors.get) // OOV tokens drop out
    if (found.isEmpty) new Array[Double](dim)
    else HashVectors.scale(found.reduceLeft(HashVectors.add), 1.0 / found.size)
  }
}
