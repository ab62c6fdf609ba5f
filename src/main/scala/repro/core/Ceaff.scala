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
  */
final case class FeatureSet(
    structEmb1: DataFrame, structEmb2: DataFrame,
    semEmb1: DataFrame, semEmb2: DataFrame,
    ms: DataFrame, mn: DataFrame, ml: DataFrame) {
  def matrix(name: String): DataFrame = name match {
    case Ceaff.Struct => ms
    case Ceaff.Sem    => mn
    case Ceaff.Str    => ml
    case other        => throw new IllegalArgumentException(s"unknown feature '$other'")
  }
  def unpersistAll(): Unit =
    Seq(structEmb1, structEmb2, semEmb1, semEmb2, ms, mn, ml).foreach(_.unpersist())
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

  /** Compute (and cache) all three features for a benchmark. */
  def features(spark: SparkSession, b: EaBenchmark): FeatureSet = {
    val (a1, a2) = StructuralFeature.anchors(spark, b.seeds)
    val se1 = StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")), a1, side = 1)
    val se2 = StructuralFeature.embed(spark, b.triples2, b.names2.select(col("id")), a2, side = 2)
    val ne1 = SemanticFeature.nameEmbeddings(spark, b.names1, b.dict1, BenchmarkGen.Dim).cache()
    val ne2 = SemanticFeature.nameEmbeddings(spark, b.names2, b.dict2, BenchmarkGen.Dim).cache()
    val domain = SimilarityMatrix.testDomain(b.test)
    FeatureSet(
      structEmb1 = se1, structEmb2 = se2, semEmb1 = ne1, semEmb2 = ne2,
      ms = StructuralFeature.calibrate(
        SimilarityMatrix.cosineCross(se1, se2, domain)).cache(),
      mn = SimilarityMatrix.cosineCross(ne1, ne2, domain).cache(),
      ml = StringFeature.matrix(spark, b).cache())
  }

  /** Score the three features on an arbitrary pair domain — used by the
    * LR baseline to build its training set over seed pairs. Returns the
    * domain's rows, with whatever columns they carry, plus one score
    * column per feature; every row keeps its multiplicity. One plan: the
    * rows are joined only to broadcast embedding and name tables.
    */
  def scoresOn(spark: SparkSession, b: EaBenchmark, fs: FeatureSet,
               domain: DataFrame): DataFrame = {
    val scored = StringFeature.withRatio(
      SimilarityMatrix.withCosine(
        SimilarityMatrix.withCosine(domain, fs.structEmb1, fs.structEmb2, Struct),
        fs.semEmb1, fs.semEmb2, Sem),
      b, Str)
    scored.withColumn(Struct, StructuralFeature.calibrated(col(Struct)))
  }

  /** Fuse the configured features.
    *
    * Full CEAFF uses the paper's two-stage scheme: semantic+string →
    * textual, then structural+textual → final. Ablations with fewer
    * features, equal weights, or externally fixed weights degrade to a
    * single-stage fusion of whatever is enabled.
    */
  def fuse(spark: SparkSession, fs: FeatureSet, cfg: CeaffConfig): FusionResult = {
    val names = cfg.featureNames
    require(names.nonEmpty, "at least one feature must be enabled")
    val feats = names.map(n => n -> fs.matrix(n))

    cfg.fixedWeights match {
      case Some(w) => AdaptiveFusion.fuseFixed(spark, feats, w)
      case None if !cfg.adaptive => AdaptiveFusion.fuseEqual(spark, feats)
      case None if cfg.useSemantic && cfg.useString =>
        val textual = AdaptiveFusion.fuse(spark,
          Seq(Sem -> fs.mn, Str -> fs.ml), cfg.theta1, cfg.theta2)
        if (!cfg.useStruct) textual
        else {
          val fin = AdaptiveFusion.fuse(spark,
            Seq(Struct -> fs.ms, Textual -> textual.fused), cfg.theta1, cfg.theta2)
          // Report flattened effective weights for interpretability.
          val wt = fin.weights(Textual)
          val flat = Map(
            Struct -> fin.weights(Struct),
            Sem -> wt * textual.weights(Sem),
            Str -> wt * textual.weights(Str))
          FusionResult(flat, fin.fused)
        }
      case None => // adaptive, but fewer than {sem, str} enabled
        AdaptiveFusion.fuse(spark, feats, cfg.theta1, cfg.theta2)
    }
  }

  /** Decision step: stable matching (collective) or row-argmax. */
  def align(spark: SparkSession, fused: DataFrame, cfg: CeaffConfig): DataFrame =
    if (cfg.collective) StableMatching.daa(spark, fused)
    else SimilarityMatrix.greedyMatch(fused)

  /** Run fusion + alignment on precomputed features. */
  def run(spark: SparkSession, fs: FeatureSet, cfg: CeaffConfig): CeaffResult = {
    val fr = fuse(spark, fs, cfg)
    val fused = fr.fused.cache()
    CeaffResult(align(spark, fused, cfg), fused, fr.weights)
  }
}
