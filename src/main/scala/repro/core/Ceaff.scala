package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
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
  * @param theta1       adaptive fusion's threshold θ1: a confident cell
  *                     scoring above it weighs θ2 (always
  *                     `AdaptiveFusion.DefaultTheta2`)
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
    fixedWeights: Option[Map[String, Double]] = None) {
  def featureNames: Seq[String] =
    (if (useStruct) Seq(Ceaff.Struct) else Nil) ++
    (if (useSemantic) Seq(Ceaff.Sem) else Nil) ++
    (if (useString) Seq(Ceaff.Str) else Nil)
}

/** The three feature similarity matrices over the test domain, plus the
  * embeddings they were scored from (kept so the baselines and the LR
  * trainer reuse them instead of recomputing embeddings), all on the
  * driver: [[local]] gives a matrix as a [[LocalMatrix]], and [[ms]],
  * [[mn]] and [[ml]] the same matrices as DataFrames.
  *
  * [[Ceaff.features]] builds one on the driver; its DataFrames are local
  * relations, built on first read, and it holds no cache. One built from
  * its seven DataFrames ([[FeatureSet.apply]]) collects each of them once,
  * on first read of its driver form; its DataFrames are those seven,
  * which stay the caller's, and [[unpersistAll]] releases them.
  */
final class FeatureSet(
    struct1Of: => EntityTables.Vectors, struct2Of: => EntityTables.Vectors,
    sem1Of: => EntityTables.Vectors, sem2Of: => EntityTables.Vectors,
    matricesOf: => Map[String, LocalMatrix], frame: String => DataFrame,
    owned: Seq[DataFrame]) {
  lazy val struct1: EntityTables.Vectors = struct1Of
  lazy val struct2: EntityTables.Vectors = struct2Of
  lazy val sem1: EntityTables.Vectors = sem1Of
  lazy val sem2: EntityTables.Vectors = sem2Of
  private lazy val matrices = matricesOf
  /** Feature `name`'s matrix on the driver. */
  def local(name: String): LocalMatrix =
    matrices.getOrElse(name, throw new IllegalArgumentException(s"unknown feature '$name'"))
  lazy val ms: DataFrame = frame(Ceaff.Struct)
  lazy val mn: DataFrame = frame(Ceaff.Sem)
  lazy val ml: DataFrame = frame(Ceaff.Str)
  def matrix(name: String): DataFrame = name match {
    case Ceaff.Struct => ms
    case Ceaff.Sem    => mn
    case Ceaff.Str    => ml
    case other        => throw new IllegalArgumentException(s"unknown feature '$other'")
  }
  def unpersistAll(): Unit = owned.foreach(_.unpersist())
}

object FeatureSet {

  /** A feature set from its embedding tables `(id, vec)` and matrices
    * `(src, dst, score)`, each collected to the driver once, when first
    * read.
    */
  def apply(structEmb1: DataFrame, structEmb2: DataFrame,
            semEmb1: DataFrame, semEmb2: DataFrame,
            ms: DataFrame, mn: DataFrame, ml: DataFrame): FeatureSet = {
    import EntityTables.vectors
    val frames = Map(Ceaff.Struct -> ms, Ceaff.Sem -> mn, Ceaff.Str -> ml)
    new FeatureSet(vectors(structEmb1), vectors(structEmb2), vectors(semEmb1), vectors(semEmb2),
      frames.map { case (n, m) => n -> LocalMatrix.of(m) }, frames,
      Seq(structEmb1, structEmb2, semEmb1, semEmb2, ms, mn, ml))
  }
}

/** Outcome of one CEAFF run: the matching `(src, dst)`, the fused
  * similarity matrix and the effective per-feature weights, all on the
  * driver.
  */
final case class CeaffResult(matching: Seq[(Long, Long)], local: LocalMatrix,
                             weights: Map[String, Double])(spark: SparkSession) {
  /** The matching as a local relation, built on first read. */
  lazy val matches: DataFrame = LocalMatrix.pairsDF(spark, matching)
  /** The fused matrix as a local relation, built on first read. */
  lazy val fused: DataFrame = local.toDF(spark)
}

/** End-to-end CEAFF pipeline (paper Fig. 2): feature generation →
  * adaptive two-stage fusion → collective alignment.
  */
object Ceaff {
  val Struct = "struct"
  val Sem = "sem"
  val Str = "str"
  val Textual = "textual"

  /** Compute all three features for a benchmark, on the driver, from its
    * driver copies (which the first call collects), in three steps:
    *
    *  1. each side's name embeddings, averaged from its dictionary
    *     ([[SemanticFeature.embedNames]]);
    *  2. both KGs' structural vectors, propagated from the seed pairs
    *     ([[StructuralFeature.embedBoth]]);
    *  3. each feature's matrix, every cell of the test domain scored from
    *     those tables ([[EntityTables.kernel]]).
    *
    * Nothing is cached: the feature set holds every matrix and embedding
    * on the driver.
    */
  def features(spark: SparkSession, b: EaBenchmark): FeatureSet = {
    val sem1 = SemanticFeature.embedNames(b.labels1, b.dictionary1, BenchmarkGen.Dim)
    val sem2 = SemanticFeature.embedNames(b.labels2, b.dictionary2, BenchmarkGen.Dim)
    val (st1, st2) = StructuralFeature.embedBoth(b, b.seedPairs)
    val tables = EntityTables(st1, st2, sem1, sem2, b.labels1, b.labels2)
    val grid = SimilarityMatrix.testGrid(b)
    val matrices = Seq(Struct, Sem, Str).map(f => f -> tables.kernel(f).matrix(grid)).toMap
    new FeatureSet(st1, st2, sem1, sem2, matrices, f => matrices(f).toDF(spark), Nil)
  }

  /** The scores of `features` on each of `pairs`, in order — used by the LR
    * baseline over its training pairs. The cells are scored like
    * [[features]]' matrices, against `fs`'s embeddings and `b`'s names.
    */
  def scoresOn(b: EaBenchmark, fs: FeatureSet, pairs: Seq[(Long, Long)],
               features: Seq[String]): Seq[Array[Double]] = {
    val tables = EntityTables(fs.struct1, fs.struct2, fs.sem1, fs.sem2, b.labels1, b.labels2)
    val scores = features.map(tables.kernel(_).on(pairs))
    pairs.indices.map(i => scores.map(_(i)).toArray)
  }

  /** Fuse the configured features on the driver.
    *
    * Full CEAFF uses the paper's two-stage scheme: semantic+string →
    * textual, then structural+textual → final. Ablations with fewer
    * features, equal weights, or externally fixed weights degrade to a
    * single-stage fusion of whatever is enabled.
    */
  private def fuseOf(fs: FeatureSet, cfg: CeaffConfig): (Map[String, Double], LocalMatrix) = {
    val names = cfg.featureNames
    require(names.nonEmpty, "at least one feature must be enabled")
    val feats = names.map(n => n -> fs.local(n))
    def adaptive(features: Seq[(String, LocalMatrix)]) =
      AdaptiveFusion.fuseOf(features, cfg.theta1, AdaptiveFusion.DefaultTheta2)

    cfg.fixedWeights match {
      case Some(w) => AdaptiveFusion.fuseFixedOf(feats, w)
      case None if !cfg.adaptive => AdaptiveFusion.fuseFixedOf(feats, names.map(_ -> 1.0).toMap)
      case None if cfg.useSemantic && cfg.useString =>
        val m = feats.toMap
        val (wt, textual) = adaptive(Seq(Sem -> m(Sem), Str -> m(Str)))
        if (!cfg.useStruct) (wt, textual)
        else {
          val (w, fused) = adaptive(Seq(Struct -> m(Struct), Textual -> textual))
          // Report flattened effective weights for interpretability.
          (Map(Struct -> w(Struct), Sem -> w(Textual) * wt(Sem), Str -> w(Textual) * wt(Str)), fused)
        }
      case None => // adaptive, but fewer than {sem, str} enabled
        adaptive(feats)
    }
  }

  /** Decision step: stable matching (collective) or row-argmax. */
  def align(fused: LocalMatrix, cfg: CeaffConfig): Seq[(Long, Long)] =
    if (cfg.collective) StableMatching.deferredAcceptance(fused)
    else SimilarityMatrix.rowArgmax(fused)

  /** Run fusion + alignment on precomputed features. Both run on the
    * driver, on `fs`'s matrices, so a run starts no Spark job.
    */
  def run(spark: SparkSession, fs: FeatureSet, cfg: CeaffConfig): CeaffResult = {
    val (w, fused) = fuseOf(fs, cfg)
    CeaffResult(align(fused, cfg), fused, w)(spark)
  }
}
