package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kg.{BenchmarkGen, EaBenchmark}

/** Which parts of CEAFF to run — each flag corresponds to one ablation
  * row of the paper's Table V.
  *
  * @param useStruct    include `M^s` (off = "w/o M^s")
  * @param useSemantic  include `M^n` (off = "w/o M^n")
  * @param useString    include `M^l` (off = "w/o M^l")
  * @param adaptive     adaptive feature fusion (off = equal weights,
  *                     "w/o AFF")
  * @param collective   stable matching via DAA (off = independent
  *                     row-argmax, "w/o C")
  * @param fixedWeights externally supplied weights (the LR baseline);
  *                     overrides `adaptive` when set
  *
  * `theta1 = Double.PositiveInfinity` is the "w/o θ1, θ2" row: no finite
  * score exceeds it, so no correspondence is capped at θ2.
  */
final case class CeaffConfig(
    useStruct: Boolean = true,
    useSemantic: Boolean = true,
    useString: Boolean = true,
    adaptive: Boolean = true,
    collective: Boolean = true,
    theta1: Double = AdaptiveFusion.DefaultTheta1,
    theta2: Double = AdaptiveFusion.DefaultTheta2,
    fixedWeights: Option[Map[String, Double]] = None) {
  def featureNames: Seq[String] =
    (if (useStruct) Seq(Ceaff.Struct) else Nil) ++
    (if (useSemantic) Seq(Ceaff.Sem) else Nil) ++
    (if (useString) Seq(Ceaff.Str) else Nil)
}

/** The three feature similarity matrices over the test domain, plus the
  * underlying embedding tables (kept so the baselines and the LR trainer
  * reuse them instead of recomputing embeddings). The caller of
  * [[Ceaff.features]] owns every cache here and releases them with
  * [[unpersistAll]].
  *
  * The seven matrix and embedding fields are all a feature set needs; one
  * built from them alone works everywhere. [[Ceaff.features]] also sets
  * `table`, the cached score table `ms`, `mn` and `ml` are column views
  * of, so that [[unpersistAll]] releases it.
  */
final case class FeatureSet(
    structEmb1: DataFrame, structEmb2: DataFrame,
    semEmb1: DataFrame, semEmb2: DataFrame,
    ms: DataFrame, mn: DataFrame, ml: DataFrame,
    table: Option[DataFrame] = None) {
  def matrix(name: String): DataFrame = name match {
    case Ceaff.Struct => ms
    case Ceaff.Sem    => mn
    case Ceaff.Str    => ml
    case other        => throw new IllegalArgumentException(s"unknown feature '$other'")
  }
  def unpersistAll(): Unit =
    (Seq(structEmb1, structEmb2, semEmb1, semEmb2, ms, mn, ml) ++ table).foreach(_.unpersist())
}

/** Outcome of one CEAFF run. */
final case class CeaffResult(
    matches: DataFrame,             // (src, dst)
    fused: DataFrame,               // fused similarity matrix
    weights: Map[String, Double])   // effective per-feature weights

/** End-to-end CEAFF pipeline (paper Fig. 2): feature generation →
  * adaptive two-stage fusion → collective alignment.
  */
object Ceaff {
  val Struct = "struct"
  val Sem = "sem"
  val Str = "str"
  val Textual = "textual"

  /** Compute all three features for a benchmark, in three steps:
    *
    *  1. the names, and their embeddings averaged from the collected
    *     dictionaries ([[SemanticFeature.average]]), on the driver;
    *  2. both KGs' structural vectors, propagated on the driver over the
    *     collected names' ids ([[StructuralFeature.embedBoth]]);
    *  3. one cached score table `(src, dst, struct, sem, str)` over the
    *     test domain, each cell scored against the broadcast tables.
    *
    * `ms`, `mn` and `ml` are column views of that table, and the
    * embedding fields are local relations.
    */
  def features(spark: SparkSession, b: EaBenchmark): FeatureSet = {
    import spark.implicits._
    def side(names: DataFrame, dict: DataFrame): (EntityTables.Vectors, Map[Long, String]) = {
      val vectors = SemanticFeature.dictionary(dict)
      val rows = names.select(col("id"), col("name"), col("tokens"))
        .as[(Long, String, Seq[String])].collect()
      (rows.map { case (id, _, t) => id -> SemanticFeature.average(t, vectors, BenchmarkGen.Dim) }.toMap,
       rows.map { case (id, n, _) => id -> n }.toMap)
    }
    val (sem1, names1) = side(b.names1, b.dict1)
    val (sem2, names2) = side(b.names2, b.dict2)
    val (st1, st2) = StructuralFeature.embedBoth(spark, b,
      b.seeds.select(col("src"), col("dst")).as[(Long, Long)].collect(), names1.keys, names2.keys)
    val table = EntityTables.scored(SimilarityMatrix.testDomain(b.test),
      EntityTables(st1, st2, sem1, sem2, names1, names2)).cache()
    def view(c: String) = table.select(col("src"), col("dst"), col(c).as("score"))
    def relation(v: EntityTables.Vectors) = EntityTables.relation(spark, v)
    FeatureSet(relation(st1), relation(st2), relation(sem1), relation(sem2),
      view(Struct), view(Sem), view(Str), Some(table))
  }

  /** Score the three features on an arbitrary pair domain — used by the
    * LR baseline to build its training set over seed pairs. Returns the
    * domain's rows, with whatever columns they carry, plus one score
    * column per feature; every row keeps its multiplicity and order. The
    * cells are scored like [[features]]' table, against `fs`'s embeddings
    * and `b`'s names collected to the driver (the embeddings cost no Spark
    * job when they are local relations, as [[features]] makes them).
    */
  def scoresOn(spark: SparkSession, b: EaBenchmark, fs: FeatureSet,
               domain: DataFrame): DataFrame = {
    import EntityTables.{names, vectors}
    EntityTables.scored(domain, EntityTables(vectors(fs.structEmb1), vectors(fs.structEmb2),
      vectors(fs.semEmb1), vectors(fs.semEmb2), names(b.names1), names(b.names2)))
  }

  /** Fuse the configured features.
    *
    * Full CEAFF uses the paper's two-stage scheme: semantic+string →
    * textual, then structural+textual → final. Ablations with fewer
    * features, equal weights, or externally fixed weights degrade to a
    * single-stage fusion of whatever is enabled.
    */
  def fuse(spark: SparkSession, fs: FeatureSet, cfg: CeaffConfig): FusionResult = {
    val (w, fused) = fuseOf(fs, cfg)
    FusionResult(w, fused.toDF(spark))
  }

  /** [[fuse]] on the driver: each enabled feature matrix is collected
    * once, and both stages run on the collected arrays.
    */
  private def fuseOf(fs: FeatureSet, cfg: CeaffConfig): (Map[String, Double], LocalMatrix) = {
    val names = cfg.featureNames
    require(names.nonEmpty, "at least one feature must be enabled")
    val feats = names.map(n => n -> LocalMatrix.of(fs.matrix(n)))

    cfg.fixedWeights match {
      case Some(w) => AdaptiveFusion.fuseFixedOf(feats, w)
      case None if !cfg.adaptive => AdaptiveFusion.fuseFixedOf(feats, names.map(_ -> 1.0).toMap)
      case None if cfg.useSemantic && cfg.useString =>
        val m = feats.toMap
        val (wt, textual) = AdaptiveFusion.fuseOf(
          Seq(Sem -> m(Sem), Str -> m(Str)), cfg.theta1, cfg.theta2)
        if (!cfg.useStruct) (wt, textual)
        else {
          val (w, fused) = AdaptiveFusion.fuseOf(
            Seq(Struct -> m(Struct), Textual -> textual), cfg.theta1, cfg.theta2)
          // Report flattened effective weights for interpretability.
          (Map(Struct -> w(Struct), Sem -> w(Textual) * wt(Sem), Str -> w(Textual) * wt(Str)), fused)
        }
      case None => // adaptive, but fewer than {sem, str} enabled
        AdaptiveFusion.fuseOf(feats, cfg.theta1, cfg.theta2)
    }
  }

  /** Decision step: stable matching (collective) or row-argmax. */
  def align(fused: LocalMatrix, cfg: CeaffConfig): Seq[(Long, Long)] =
    if (cfg.collective) StableMatching.deferredAcceptance(fused)
    else SimilarityMatrix.rowArgmax(fused)

  /** Run fusion + alignment on precomputed features. The decision stage
    * runs on the driver, so the result's matches and fused matrix are
    * local relations.
    */
  def run(spark: SparkSession, fs: FeatureSet, cfg: CeaffConfig): CeaffResult = {
    val (w, fused) = fuseOf(fs, cfg)
    CeaffResult(LocalMatrix.pairsDF(spark, align(fused, cfg)), fused.toDF(spark), w)
  }
}
