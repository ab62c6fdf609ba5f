package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kg.Label
import repro.text.{HashVectors, Levenshtein}

/** The entity-level inputs of the three feature scores, held on the
  * driver and keyed by entity id: each side's structural vectors, name
  * embeddings and names. Every cell of a feature matrix is scored from
  * them on the driver ([[LocalMatrix.tabulate]]).
  */
final case class EntityTables(
    struct1: EntityTables.Vectors, struct2: EntityTables.Vectors,
    sem1: EntityTables.Vectors, sem2: EntityTables.Vectors,
    names1: Map[Long, Label], names2: Map[Long, Label]) {
  import EntityTables.{cosine, ratio}

  /** Feature `f`'s score of a cell `(src, dst)`: the calibrated structural
    * cosine ([[Ceaff.Struct]]), the name-embedding cosine ([[Ceaff.Sem]])
    * or the names' Levenshtein ratio ([[Ceaff.Str]]).
    */
  def score(f: String): (Long, Long) => Double = f match {
    case Ceaff.Struct => (s, d) => StructuralFeature.calibrated(cosine(struct1, struct2, s, d), s, d)
    case Ceaff.Sem    => (s, d) => cosine(sem1, sem2, s, d)
    case Ceaff.Str    => (s, d) => ratio(names1, names2, s, d)
    case other        => throw new IllegalArgumentException(s"unknown feature '$other'")
  }
}

object EntityTables {
  type Vectors = Map[Long, Array[Double]]

  /** Cosine of `s`'s vector in `v1` and `d`'s in `v2`; 0 when either
    * entity has no vector (or a zero one).
    */
  def cosine(v1: Vectors, v2: Vectors, s: Long, d: Long): Double =
    (v1.get(s), v2.get(d)) match {
      case (Some(a), Some(b)) => HashVectors.cosine(a, b)
      case _                  => 0.0
    }

  /** Levenshtein ratio of `s`'s name in `n1` and `d`'s in `n2`; 0 when
    * either entity has no name.
    */
  def ratio(n1: Map[Long, Label], n2: Map[Long, Label], s: Long, d: Long): Double =
    (n1.get(s), n2.get(d)) match {
      case (Some(a), Some(b)) => Levenshtein.ratio(a.text, b.text)
      case _                  => 0.0
    }

  /** An embedding table `(id, vec)` collected to the driver. */
  def vectors(emb: DataFrame): Vectors = {
    import emb.sparkSession.implicits._
    emb.select(col("id"), col("vec")).as[(Long, Seq[Double])].collect()
      .map { case (id, v) => id -> v.toArray }.toMap
  }

  /** `v` as an embedding table `(id, vec)`: a local relation, ordered by
    * id, that Spark reads from the driver without a job.
    */
  def relation(spark: SparkSession, v: Vectors): DataFrame = {
    import spark.implicits._
    v.toSeq.sortBy(_._1).map { case (id, x) => (id, x.toSeq) }.toDF("id", "vec")
  }
}
