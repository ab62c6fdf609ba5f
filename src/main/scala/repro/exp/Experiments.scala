package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.kg._

/** Shared harness behind the per-table jobs and bench suites.
  *
  * Every paper table is exposed as a function returning plain rows, so
  * `jobs/` entrypoints and `bench/` suites print identical tables. Sizes
  * are scaled-down analogues of the paper's datasets (DESIGN.md §2):
  * DBP100K > DBP15K > SRPRS in entity count, dense vs sparse per group.
  */
object Experiments {

  /** Gold-pair and fringe-entity counts for one benchmark group at a
    * scale multiplier (`scale=1` ≈ bench scale, tests use ~0.15).
    */
  final case class Sizes(nGold: Long, nFringe: Long)

  def sizesFor(group: String, scale: Double): Sizes = {
    val base = group match {
      case "DBP15K"  => 800L
      case "DBP100K" => 1200L
      case "SRPRS"   => 600L
      case other     => throw new IllegalArgumentException(s"unknown group '$other'")
    }
    val n = math.max(40L, (base * scale).toLong)
    Sizes(n, n / 2)
  }

  /** Scale factor from the environment (benches honour `REPRO_SCALE`). */
  def envScale(default: Double = 1.0): Double =
    sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(default)

  /** Per-scenario generator seed, so e.g. the three DBP15K-like pairs get
    * different graphs (as the paper's do), not just different names.
    */
  def seedFor(scenario: Scenario): Long =
    7 + java.lang.Long.remainderUnsigned(
      repro.text.HashVectors.hash64(scenario.name), 997)

  def benchmark(spark: SparkSession, scenario: Scenario, scale: Double): EaBenchmark = {
    val s = sizesFor(scenario.group, scale)
    BenchmarkGen.generate(spark, scenario, s.nGold, s.nFringe, seedFor(scenario)).cached()
  }

  private val startNanos = System.nanoTime()

  /** Progress line stamped with the seconds since the harness started
    * (stderr, unbuffered).
    */
  def progress(msg: String): Unit =
    Console.err.println(f"[exp +${(System.nanoTime() - startNanos) / 1e9}%.1fs] $msg")

  // -------------------------------------------------------------------
  // Table II — dataset statistics
  // -------------------------------------------------------------------

  def table2(spark: SparkSession, scale: Double): Seq[KgPairStats] =
    Scenario.all.map(sc => KgStats.of(benchmark(spark, sc, scale)))

  // -------------------------------------------------------------------
  // Tables III, IV & VI — accuracy and ranking of CEAFF vs baseline proxies
  // -------------------------------------------------------------------

  /** One method's scores on one dataset. Methods that rank (the baselines
    * and `ceaffNoC`) report Hits@1/Hits@10/MRR; collective ones report
    * only their accuracy, as Hits@1 (their output has no ranked lists).
    */
  final case class RankRow(method: String, dataset: String,
                           hitsAt1: Double, hitsAt10: Option[Double], mrr: Option[Double])

  /** Method roster for the accuracy tables, paper order: structure-only
    * group, then multi-feature group, then CEAFF variants.
    */
  val accuracyMethods: Seq[String] =
    Baselines.names ++ Seq("ceaffNoStr", "ceaff")

  /** Method roster of Table VI, in its row order. */
  val rankingMethods: Seq[String] =
    Baselines.names ++ Seq("ceaffNoC", "ceaff")

  /** Every method's row on one benchmark, each scored on one feature set:
    * the baselines, `ceaffNoStr` (the paper's "CEAFF w/o M^l" row,
    * semantic+structural only), then `ceaffNoC` and `ceaff` from one full
    * CEAFF run (its fused matrix ranked, and its DAA matching). A
    * baseline's Hits@1 is its row-argmax accuracy: the argmax keeps a
    * row's first maximum, which is the one cell of rank 1.
    */
  def accuracies(spark: SparkSession, b: EaBenchmark): Seq[RankRow] = {
    val fs = Ceaff.features(spark, b)
    val d = b.scenario.name
    def ranked(m: String, matrix: LocalMatrix): RankRow = {
      val r = Evaluation.rankingMetrics(matrix, b.testPairs)
      RankRow(m, d, r.hitsAt1, Some(r.hitsAt10), Some(r.mrr))
    }
    def collective(m: String, r: CeaffResult): RankRow =
      RankRow(m, d, Evaluation.accuracy(r.matching, b.testPairs), None, None)
    val baselines = Baselines.names.map { m =>
      progress(s"$d: running $m")
      ranked(m, Baselines.matrix(b, fs, m))
    }
    progress(s"$d: running ceaffNoStr")
    val noStr = collective("ceaffNoStr", Ceaff.run(spark, fs, CeaffConfig(useString = false)))
    progress(s"$d: running ceaff")
    val full = Ceaff.run(spark, fs, CeaffConfig())
    baselines ++ Seq(noStr, ranked("ceaffNoC", full.local), collective("ceaff", full))
  }

  val table3Datasets: Seq[Scenario] = Seq(
    Scenario.Dbp15kZhEn, Scenario.Dbp15kJaEn, Scenario.Dbp15kFrEn,
    Scenario.SrprsEnFr, Scenario.SrprsEnDe)

  val table4Datasets: Seq[Scenario] = Seq(
    Scenario.Dbp100kWd, Scenario.Dbp100kYg, Scenario.SrprsWd, Scenario.SrprsYg)

  val table6Datasets: Seq[Scenario] = Seq(
    Scenario.Dbp15kZhEn, Scenario.Dbp15kJaEn, Scenario.Dbp15kFrEn)

  /** Every method's row on each dataset, in dataset order. */
  def accuracyTable(spark: SparkSession, datasets: Seq[Scenario], scale: Double): Seq[RankRow] =
    datasets.flatMap(sc => accuracies(spark, benchmark(spark, sc, scale)))

  def table3(spark: SparkSession, scale: Double): Seq[RankRow] =
    accuracyTable(spark, table3Datasets, scale)

  def table4(spark: SparkSession, scale: Double): Seq[RankRow] =
    accuracyTable(spark, table4Datasets, scale)

  /** Table VI — ranking evaluation on DBP15K: the DBP15K rows of Table VI's
    * methods, taken from [[accuracyTable]] rows, dataset by dataset.
    */
  def table6(rows: Seq[RankRow]): Seq[RankRow] = {
    val datasets = table6Datasets.map(_.name).toSet
    rows.filter(r => datasets(r.dataset) && rankingMethods.contains(r.method))
  }

  /** The `(method, dataset, Hits@1)` cells that Tables III and IV pivot. */
  def hitsAt1(rows: Seq[RankRow]): Seq[(String, String, Double)] =
    rows.map(r => (r.method, r.dataset, r.hitsAt1))

  // -------------------------------------------------------------------
  // Table V — ablations
  // -------------------------------------------------------------------

  /** Ablation roster, paper order (Table V row → config). */
  val ablations: Seq[(String, CeaffConfig)] = Seq(
    "CEAFF"        -> CeaffConfig(),
    "w/o Ms"       -> CeaffConfig(useStruct = false),
    "w/o Mn"       -> CeaffConfig(useSemantic = false),
    "w/o Ml"       -> CeaffConfig(useString = false),
    "w/o AFF"      -> CeaffConfig(adaptive = false),
    "w/o C"        -> CeaffConfig(collective = false),
    "w/o C, Ms"    -> CeaffConfig(collective = false, useStruct = false),
    "w/o C, Mn"    -> CeaffConfig(collective = false, useSemantic = false),
    "w/o C, Ml"    -> CeaffConfig(collective = false, useString = false),
    "w/o C, AFF"   -> CeaffConfig(collective = false, adaptive = false),
    "w/o th1,th2"  -> CeaffConfig(theta1 = Double.PositiveInfinity))

  val table5Datasets: Seq[Scenario] = Seq(
    Scenario.SrprsEnFr, Scenario.SrprsEnDe, Scenario.SrprsWd, Scenario.SrprsYg,
    Scenario.Dbp15kZhEn)

  /** Ablation + LR accuracies on one benchmark; features computed once. */
  def ablationAccuracies(spark: SparkSession, b: EaBenchmark)
      : Seq[(String, Double)] = {
    val fs = Ceaff.features(spark, b)
    val rows = ablations.map { case (name, cfg) =>
      progress(s"${b.scenario.name}: ablation '$name'")
      val r = Ceaff.run(spark, fs, cfg)
      val a = Evaluation.accuracy(r.matching, b.testPairs)
      progress(s"${b.scenario.name}: '$name' acc=$a weights=${
        r.weights.view.mapValues(w => f"$w%.3f").toMap}")
      name -> a
    }
    val lrWeights = LRFusion.learnWeights(spark, b, fs)
    val lrRun = Ceaff.run(spark, fs, CeaffConfig(fixedWeights = Some(lrWeights)))
    rows :+ ("LR" -> Evaluation.accuracy(lrRun.matching, b.testPairs))
  }

  def table5(spark: SparkSession, scale: Double): Seq[(String, String, Double)] =
    table5Datasets.flatMap { sc =>
      val b = benchmark(spark, sc, scale)
      ablationAccuracies(spark, b).map { case (m, a) => (m, sc.name, a) }
    }

  // -------------------------------------------------------------------
  // Formatting
  // -------------------------------------------------------------------

  /** Pivot `(method, dataset, value)` rows into a fixed-width table with
    * methods as rows and datasets as columns, paper-style.
    */
  def pivot(rows: Seq[(String, String, Double)],
            methodOrder: Seq[String], datasetOrder: Seq[String]): String = {
    val byKey = rows.map { case (m, d, v) => (m, d) -> v }.toMap
    val w = math.max(14, datasetOrder.map(_.length).max + 2)
    val header = "method".padTo(18, ' ') + datasetOrder.map(_.padTo(w, ' ')).mkString
    val lines = methodOrder.map { m =>
      m.padTo(18, ' ') + datasetOrder.map { d =>
        byKey.get((m, d)).map(v => f"$v%.3f").getOrElse("-").padTo(w, ' ')
      }.mkString
    }
    (header +: lines).mkString("\n")
  }

  def formatStats(stats: Seq[KgPairStats]): String = {
    val header = f"${"dataset"}%-18s${"kg1"}%-5s${"triples1"}%10s${"entities1"}%11s" +
      f"${"kg2"}%5s${"triples2"}%10s${"entities2"}%11s${"gold"}%7s${"seed"}%7s${"test"}%7s"
    val lines = stats.map { s =>
      f"${s.dataset}%-18s${s.kg1Label}%-5s${s.triples1}%10d${s.entities1}%11d" +
      f"${s.kg2Label}%5s${s.triples2}%10d${s.entities2}%11d${s.goldPairs}%7d${s.seedPairs}%7d${s.testPairs}%7d"
    }
    (header +: lines).mkString("\n")
  }

  def formatRanking(rows: Seq[RankRow]): String = {
    val header = f"${"method"}%-18s${"dataset"}%-16s${"Hits@1"}%8s${"Hits@10"}%9s${"MRR"}%8s"
    val lines = rows.map { r =>
      val h10 = r.hitsAt10.map(v => f"$v%.3f").getOrElse("-")
      val mrr = r.mrr.map(v => f"$v%.3f").getOrElse("-")
      f"${r.method}%-18s${r.dataset}%-16s${r.hitsAt1}%8.3f$h10%9s$mrr%8s"
    }
    (header +: lines).mkString("\n")
  }
}
