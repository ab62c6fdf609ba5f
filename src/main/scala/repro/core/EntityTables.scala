package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kg.Label
import repro.text.{HashVectors, Levenshtein}

/** The entity-level inputs of the three feature scores, held on the
  * driver and keyed by entity id: each side's structural vectors, name
  * embeddings and names. Every cell of a feature matrix is scored from
  * them on the driver, by the feature's [[EntityTables.Kernel]].
  */
final case class EntityTables(
    struct1: EntityTables.Vectors, struct2: EntityTables.Vectors,
    sem1: EntityTables.Vectors, sem2: EntityTables.Vectors,
    names1: Map[Long, Label], names2: Map[Long, Label]) {
  import EntityTables._

  /** Feature `f`'s kernel: the calibrated structural cosine
    * ([[Ceaff.Struct]]), the name-embedding cosine ([[Ceaff.Sem]]) or the
    * names' Levenshtein ratio ([[Ceaff.Str]]).
    */
  def kernel(f: String): Kernel[_, _] = f match {
    case Ceaff.Struct => structural(struct1, struct2)
    case Ceaff.Sem    => cosines(sem1, sem2)
    case Ceaff.Str    => ratios(names1, names2)
    case other        => throw new IllegalArgumentException(s"unknown feature '$other'")
  }
}

object EntityTables {
  type Vectors = Map[Long, Array[Double]]

  /** A feature's score of cell `(s, d)`: `cell(row(s), col(d))`. `row`
    * and `col` prepare an entity once for all the cells it is in.
    */
  final case class Kernel[R, C](row: Long => R, col: Long => C, cell: (R, C) => Double) {
    /** Every cell of `grid`'s ids, scored. */
    def matrix(grid: LocalMatrix): LocalMatrix = grid.tabulate(row, col)(cell)

    /** The scores of `pairs`, in order, each entity prepared once. */
    def on(pairs: Seq[(Long, Long)]): Array[Double] = {
      val rs = pairs.map(_._1).distinct.map(s => s -> row(s)).toMap
      val cs = pairs.map(_._2).distinct.map(d => d -> col(d)).toMap
      pairs.iterator.map { case (s, d) => cell(rs(s), cs(d)) }.toArray
    }
  }

  private val NoVector = new HashVectors.Normed(Array.emptyDoubleArray)

  /** `id`'s vector in `v` with its norm; a zero norm when `id` has none,
    * so that it scores 0 to everything.
    */
  private def normed(v: Vectors)(id: Long): HashVectors.Normed =
    v.get(id).fold(NoVector)(new HashVectors.Normed(_))

  /** The cosine of `s`'s vector in `v1` and `d`'s in `v2`; 0 when either
    * entity has no vector (or a zero one).
    */
  def cosines(v1: Vectors, v2: Vectors): Kernel[HashVectors.Normed, HashVectors.Normed] =
    Kernel(normed(v1), normed(v2), HashVectors.cosine)

  /** The cosine of [[cosines]], calibrated ([[StructuralFeature.calibrated]]):
    * a row carries its jitter state, a column its id.
    */
  def structural(v1: Vectors, v2: Vectors): Kernel[(HashVectors.Normed, Long), (HashVectors.Normed, Long)] =
    Kernel(s => (normed(v1)(s), StructuralFeature.jitterState(s)), d => (normed(v2)(d), d),
      (r, c) => StructuralFeature.calibrated(HashVectors.cosine(r._1, c._1), r._2, c._2))

  /** The Levenshtein ratio of `s`'s name in `n1` and `d`'s in `n2`; 0 when
    * either entity has no name.
    */
  def ratios(n1: Map[Long, Label], n2: Map[Long, Label]): Kernel[Option[Levenshtein.Masks], Option[String]] =
    Kernel(s => n1.get(s).map(l => Levenshtein.masks(l.text)), d => n2.get(d).map(_.text), {
      case (Some(a), Some(b)) => Levenshtein.ratio(a, b)
      case _                  => 0.0
    })

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
