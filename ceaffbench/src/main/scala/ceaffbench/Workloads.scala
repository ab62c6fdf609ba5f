package ceaffbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.kg.{BenchmarkGen, EaBenchmark, Scenario}

/** What one pass hands back, all of it already computed: quality figures,
  * the matchings (cached or local, collected outside the timer), the
  * cached fused matrix DAA ran on (collective workloads) and a release of
  * every cache the pass's caller is responsible for.
  */
final case class PassOut(
    quality: Map[String, Double],
    matchings: Seq[(String, DataFrame, Boolean)],
    daaInput: Option[DataFrame],
    release: () => Unit)

/** A benchmark workload: a fixed-size input and the pass run on it.
  *
  * `pass` calls the public entry points a user calls, up to evaluation,
  * on the input and on the feature set `prepare` computed once per run
  * (if the workload shares one across passes). `tracedPass` makes the same
  * layer calls in the same order, but one layer at a time inside a span,
  * forcing each layer's result at its boundary; it re-composes
  * `Ceaff.features` and `Ceaff.fuse` from their layer calls because the
  * program itself carries no tracing.
  */
sealed trait Workload {
  def name: String
  def scenario: Scenario
  def scale: Double
  def prepare(spark: SparkSession, b: EaBenchmark, t: Option[Tracer]): Option[FeatureSet] = None
  def pass(spark: SparkSession, b: EaBenchmark, fs: Option[FeatureSet]): PassOut
  def tracedPass(spark: SparkSession, b: EaBenchmark, fs: Option[FeatureSet], t: Tracer): PassOut
}

object Workload {
  val all: Seq[Workload] = Seq(ZhEnCollective, EnFrIndependent)

  def byName(n: String): Workload = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown workload '$n'; known: ${all.map(_.name).mkString(", ")}"))

  /** Every layer the traced run reports, on every workload (0 where the
    * workload's pass never calls it).
    */
  val layers: Seq[String] =
    Seq("gen", "struct", "sem", "ms", "mn", "ml", "aff", "wsum", "daa", "greedy", "rank", "lr", "eval")

  def forced(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** `Ceaff.features`, one span per layer. */
  def tracedFeatures(spark: SparkSession, b: EaBenchmark, t: Tracer): FeatureSet = {
    val dim = BenchmarkGen.Dim
    val (se1, se2) = t.span("struct") {
      val (a1, a2) = StructuralFeature.anchors(spark, b.seeds, dim)
      (forced(StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")), a1, side = 1, dim = dim)),
       forced(StructuralFeature.embed(spark, b.triples2, b.names2.select(col("id")), a2, side = 2, dim = dim)))
    }
    val (ne1, ne2) = t.span("sem") {
      (forced(SemanticFeature.nameEmbeddings(spark, b.names1, b.dict1, dim)),
       forced(SemanticFeature.nameEmbeddings(spark, b.names2, b.dict2, dim)))
    }
    val domain = SimilarityMatrix.testDomain(b.test)
    val ms = t.span("ms")(forced(StructuralFeature.calibrate(SimilarityMatrix.cosineCross(se1, se2, domain))))
    val mn = t.span("mn")(forced(SimilarityMatrix.cosineCross(ne1, ne2, domain)))
    val ml = t.span("ml")(forced(StringFeature.matrix(spark, b)))
    FeatureSet(se1, se2, ne1, ne2, ms, mn, ml)
  }
}

/** Collective decisions on dense, distant-language DBP15K ZH-EN: full
  * CEAFF fusion and matching (`Ceaff.run`) repeated on one feature set, as
  * the ablation and ranking experiments run it. Two-stage AFF
  * (confident-cell joins per feature) and the DAA rounds are many small
  * Spark jobs, so job-count and scheduling changes show here. The features
  * are computed once per run, before the warm-up; the other workload times
  * them in every pass.
  */
object ZhEnCollective extends Workload {
  import Workload._
  val name = "zh-en-collective"
  val scenario: Scenario = Scenario.Dbp15kZhEn
  val scale = 0.25

  override def prepare(spark: SparkSession, b: EaBenchmark, t: Option[Tracer]): Option[FeatureSet] =
    Some(t match {
      case Some(tr) => tr.span("prepare")(tracedFeatures(spark, b, tr))
      case None =>
        val fs = Ceaff.features(spark, b)
        Seq(fs.ms, fs.mn, fs.ml).foreach(_.count())
        fs
    })

  def pass(spark: SparkSession, b: EaBenchmark, shared: Option[FeatureSet]): PassOut = {
    val r = Ceaff.run(spark, shared.get, CeaffConfig())
    val acc = Evaluation.accuracy(r.matches, b.test)
    PassOut(Map("accuracy" -> acc), Seq(("daa", r.matches, true)), Some(r.fused),
      () => r.fused.unpersist())
  }

  def tracedPass(spark: SparkSession, b: EaBenchmark, shared: Option[FeatureSet], t: Tracer): PassOut =
      t.span("pass") {
    val fs = shared.get
    val th1 = AdaptiveFusion.DefaultTheta1; val th2 = AdaptiveFusion.DefaultTheta2
    // Ceaff.fuse, full CEAFF: semantic+string → textual (cached, as in
    // Ceaff.fuse), then structural+textual → fused.
    val w1 = t.span("aff")(AdaptiveFusion.adaptiveWeights(spark,
      Seq(Ceaff.Sem -> fs.mn, Ceaff.Str -> fs.ml), th1, th2))
    val textual = t.span("wsum")(forced(SimilarityMatrix.weightedSum(spark,
      Seq(fs.mn -> w1(Ceaff.Sem), fs.ml -> w1(Ceaff.Str)))))
    val w2 = t.span("aff")(AdaptiveFusion.adaptiveWeights(spark,
      Seq(Ceaff.Struct -> fs.ms, Ceaff.Textual -> textual), th1, th2))
    val fused = t.span("wsum")(forced(SimilarityMatrix.weightedSum(spark,
      Seq(fs.ms -> w2(Ceaff.Struct), textual -> w2(Ceaff.Textual)))))
    val matches = t.span("daa")(StableMatching.daa(spark, fused))
    val acc = t.span("eval")(Evaluation.accuracy(matches, b.test))
    PassOut(Map("accuracy" -> acc), Seq(("daa", matches, true)), Some(fused),
      () => fused.unpersist())
  }
}

/** Independent decisions on sparse, close-language SRPRS EN-FR: the
  * `w/o C, AFF` ablation, ranking metrics and the LR baseline, with the
  * features recomputed in every pass. It never calls `adaptiveWeights` or
  * `daa`. It has 2.25× the cells of the collective workload, but at these
  * scales its layers, too, wait on Spark scheduling more than they compute.
  * It also scores a sparse pair domain (LR's seed × negatives) beside the
  * dense test domain.
  */
object EnFrIndependent extends Workload {
  import Workload._
  val name = "en-fr-independent"
  val scenario: Scenario = Scenario.SrprsEnFr
  val scale = 0.5

  private val equal = CeaffConfig(collective = false, adaptive = false)
  private def lrConfig(w: Map[String, Double]) = CeaffConfig(fixedWeights = Some(w), collective = false)

  def pass(spark: SparkSession, b: EaBenchmark, shared: Option[FeatureSet]): PassOut = {
    val fs = Ceaff.features(spark, b)
    val eq = Ceaff.run(spark, fs, equal)
    val eqMatches = eq.matches.cache()
    val acc = Evaluation.accuracy(eqMatches, b.test)
    val rank = Evaluation.rankingMetrics(eq.fused, b.test)
    val lr = Ceaff.run(spark, fs, lrConfig(LRFusion.learnWeights(spark, b, fs)))
    val lrMatches = lr.matches.cache()
    val accLr = Evaluation.accuracy(lrMatches, b.test)
    PassOut(quality(acc, rank, accLr),
      Seq(("equal", eqMatches, false), ("lr", lrMatches, false)), None,
      () => { Seq(eqMatches, lrMatches, eq.fused, lr.fused).foreach(_.unpersist()); fs.unpersistAll() })
  }

  def tracedPass(spark: SparkSession, b: EaBenchmark, shared: Option[FeatureSet], t: Tracer): PassOut =
      t.span("pass") {
    val fs = tracedFeatures(spark, b, t)
    def feats(cfg: CeaffConfig) = cfg.featureNames.map(n => n -> fs.matrix(n))
    val eqFused = t.span("wsum")(forced(AdaptiveFusion.fuseEqual(spark, feats(equal)).fused))
    val eqMatches = t.span("greedy")(forced(SimilarityMatrix.greedyMatch(eqFused)))
    val acc = t.span("eval")(Evaluation.accuracy(eqMatches, b.test))
    val rank = t.span("rank")(Evaluation.rankingMetrics(eqFused, b.test))
    val w = t.span("lr")(LRFusion.learnWeights(spark, b, fs))
    val cfg = lrConfig(w)
    val lrFused = t.span("wsum")(forced(AdaptiveFusion.fuseFixed(spark, feats(cfg), w).fused))
    val lrMatches = t.span("greedy")(forced(SimilarityMatrix.greedyMatch(lrFused)))
    val accLr = t.span("eval")(Evaluation.accuracy(lrMatches, b.test))
    PassOut(quality(acc, rank, accLr),
      Seq(("equal", eqMatches, false), ("lr", lrMatches, false)), None,
      () => { Seq(eqMatches, lrMatches, eqFused, lrFused).foreach(_.unpersist()); fs.unpersistAll() })
  }

  /** `hits1` is checked against `accuracy`: both are the row-argmax of the
    * same fused matrix under the same tie-break.
    */
  private def quality(acc: Double, rank: RankingMetrics, accLr: Double): Map[String, Double] =
    Map("accuracy" -> acc, "hits1" -> rank.hitsAt1, "hits10" -> rank.hitsAt10,
      "mrr" -> rank.mrr, "accuracy_lr" -> accLr)
}
