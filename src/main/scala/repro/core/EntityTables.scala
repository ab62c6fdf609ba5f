package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import repro.text.{HashVectors, Levenshtein}

/** The entity-level inputs of the three feature scores, held on the
  * driver and keyed by entity id: each side's structural vectors, name
  * embeddings and names. They are O(#entities), against the O(n²) cells
  * they score, so Spark broadcasts them once and scores every cell where
  * it lies, with no join.
  */
final case class EntityTables(
    struct1: EntityTables.Vectors, struct2: EntityTables.Vectors,
    sem1: EntityTables.Vectors, sem2: EntityTables.Vectors,
    names1: Map[Long, String], names2: Map[Long, String])

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
  def ratio(n1: Map[Long, String], n2: Map[Long, String], s: Long, d: Long): Double =
    (n1.get(s), n2.get(d)) match {
      case (Some(a), Some(b)) => Levenshtein.ratio(a, b)
      case _                  => 0.0
    }

  /** A column over a frame's `src` and `dst` that scores each cell with
    * `f` on the broadcast value `t`.
    */
  def cellScore[T](t: Broadcast[T])(f: (T, Long, Long) => Double): Column =
    udf((s: Long, d: Long) => f(t.value, s, d)).apply(col("src"), col("dst"))

  /** `cells` (which has `src` and `dst`) with the three feature scores
    * added as columns [[Ceaff.Struct]] (calibrated), [[Ceaff.Sem]] and
    * [[Ceaff.Str]]. The tables are broadcast once, so the cells keep their
    * rows, order and partitioning.
    */
  def scored(cells: DataFrame, tables: EntityTables): DataFrame = {
    val score = cellScore(cells.sparkSession.sparkContext.broadcast(tables)) _
    cells.select(col("*"),
      StructuralFeature.calibrated(score((e, s, d) => cosine(e.struct1, e.struct2, s, d))).as(Ceaff.Struct),
      score((e, s, d) => cosine(e.sem1, e.sem2, s, d)).as(Ceaff.Sem),
      score((e, s, d) => ratio(e.names1, e.names2, s, d)).as(Ceaff.Str))
  }

  /** An embedding table `(id, vec)` collected to the driver. */
  def vectors(emb: DataFrame): Vectors = {
    import emb.sparkSession.implicits._
    emb.select(col("id"), col("vec")).as[(Long, Seq[Double])].collect()
      .map { case (id, v) => id -> v.toArray }.toMap
  }

  /** A names table `(id, name, ...)` collected to the driver. */
  def names(ns: DataFrame): Map[Long, String] = {
    import ns.sparkSession.implicits._
    ns.select(col("id"), col("name")).as[(Long, String)].collect().toMap
  }

  /** `v` as an embedding table `(id, vec)`: a local relation, ordered by
    * id, that Spark reads from the driver without a job.
    */
  def relation(spark: SparkSession, v: Vectors): DataFrame = {
    import spark.implicits._
    v.toSeq.sortBy(_._1).map { case (id, x) => (id, x.toSeq) }.toDF("id", "vec")
  }
}
