package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, Scenario}
import repro.{Fixtures, SparkSpec}

/** End-to-end CEAFF pipeline tests on small benchmarks. */
class CeaffSpec extends SparkSpec with Fixtures {

  private lazy val mono = BenchmarkGen
    .generate(spark, Scenario.SrprsWd, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val cross = BenchmarkGen
    .generate(spark, Scenario.SrprsEnFr, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val fsMono = Ceaff.features(spark, mono)
  private lazy val fsCross = Ceaff.features(spark, cross)

  test("features and a full run release every cache once the caller unpersists") {
    val b = BenchmarkGen
      .generate(spark, Scenario.SrprsEnFr, nGold = 60, nFringe = 20, seed = 3).cached()
    Seq(b.triples1, b.triples2, b.names1, b.names2, b.dict1, b.dict2, b.seeds, b.test)
      .foreach(_.count())
    // The session is shared with every other suite: compare, do not
    // expect an empty set.
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val fs = Ceaff.features(spark, b)
    val r = Ceaff.run(spark, fs, CeaffConfig())
    assert(r.matches.count() == b.test.count())
    r.fused.unpersist()
    fs.unpersistAll()
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
    b.unpersistAll()
  }

  test("generation, features and fusion do not depend on the partitioning") {
    /** Matchings and weights of CEAFF and "w/o AFF" on a benchmark
      * generated with `n` shuffle partitions and every input member
      * repartitioned to `n`.
      */
    def runAt(n: Int): Seq[(Map[Long, Long], Map[String, Double])] = {
      val key = "spark.sql.shuffle.partitions"
      val prev = spark.conf.get(key)
      spark.conf.set(key, n.toString)
      try {
        val g = BenchmarkGen.generate(spark, Scenario.SrprsEnFr, nGold = 150, nFringe = 50, seed = 7)
        val b = g.copy(
          triples1 = g.triples1.repartition(n), triples2 = g.triples2.repartition(n),
          names1 = g.names1.repartition(n), names2 = g.names2.repartition(n),
          dict1 = g.dict1.repartition(n), dict2 = g.dict2.repartition(n),
          seeds = g.seeds.repartition(n), test = g.test.repartition(n)).cached()
        val fs = Ceaff.features(spark, b)
        val out = Seq(CeaffConfig(), CeaffConfig(adaptive = false)).map { cfg =>
          val r = Ceaff.run(spark, fs, cfg)
          val m = matchMap(r.matches)
          r.fused.unpersist()
          (m, r.weights)
        }
        fs.unpersistAll(); b.unpersistAll()
        out
      } finally spark.conf.set(key, prev)
    }
    val one = runAt(1)
    val eight = runAt(8)
    Seq("CEAFF", "w/o AFF").zip(one.zip(eight)).foreach { case (name, ((m1, w1), (m8, w8))) =>
      val same = m1 == m8
      assert(same, s"$name: ${m1.count { case (s, d) => !m8.get(s).contains(d) }} of ${m1.size} matches differ")
      assert(w1 == w8, s"$name weights")
    }
  }

  private object Plans extends AdaptiveSparkPlanHelper

  /** The cache a cached DataFrame reads. */
  private def cacheOf(df: DataFrame): AnyRef =
    Plans.collectFirst(df.queryExecution.executedPlan) {
      case t: InMemoryTableScanExec => t.relation.cacheBuilder
    }.get

  /** The shuffles of an executed plan, looking through every cache it
    * reads except `stop`.
    */
  private def shuffles(plan: SparkPlan, stop: Seq[AnyRef]): Seq[ShuffleExchangeExec] =
    Plans.flatMap(plan) {
      case s: ShuffleExchangeExec => Seq(s)
      case t: InMemoryTableScanExec if !stop.exists(_ eq t.relation.cacheBuilder) =>
        shuffles(t.relation.cachedPlan, stop)
      case _ => Nil
    }

  test("an independent run shuffles no cell above the feature caches") {
    val r = Ceaff.run(spark, fsCross, CeaffConfig(collective = false, adaptive = false))
    r.matches.collect() // finalises the adaptive plan
    val found = shuffles(r.matches.queryExecution.executedPlan,
      Seq(fsCross.ms, fsCross.mn, fsCross.ml).map(cacheOf))
    assert(found.isEmpty, found.mkString("\n"))
    r.fused.unpersist()
  }

  test("features produces three cached full matrices") {
    val n = mono.test.count()
    assert(fsMono.ms.count() == n * n)
    assert(fsMono.mn.count() == n * n)
    assert(fsMono.ml.count() == n * n)
  }

  test("full CEAFF run yields a 1-1 matching over all test entities") {
    val r = Ceaff.run(spark, fsMono, CeaffConfig())
    val m = matchMap(r.matches)
    assert(m.size == mono.test.count())
    assert(m.values.toSet.size == m.size, "matching is not injective")
  }

  test("effective fusion weights form a distribution over enabled features") {
    val r = Ceaff.run(spark, fsCross, CeaffConfig())
    assert(r.weights.keySet == Set(Ceaff.Struct, Ceaff.Sem, Ceaff.Str))
    assert(math.abs(r.weights.values.sum - 1.0) < 1e-9, r.weights.toString)
    assert(r.weights.values.forall(_ >= 0.0))
  }

  test("CEAFF reaches near-perfect accuracy on mono-lingual data (paper Table IV)") {
    val r = Ceaff.run(spark, fsMono, CeaffConfig())
    val acc = Evaluation.accuracy(r.matches, mono.test)
    assert(acc > 0.95, s"mono CEAFF accuracy $acc")
  }

  test("collective decisions beat independent ones on cross-lingual data (w/o C ablation)") {
    val coll = Evaluation.accuracy(
      Ceaff.run(spark, fsCross, CeaffConfig()).matches, cross.test)
    val indep = Evaluation.accuracy(
      Ceaff.run(spark, fsCross, CeaffConfig(collective = false)).matches, cross.test)
    assert(coll >= indep, s"collective $coll < independent $indep")
  }

  test("CEAFF beats every single feature alone on cross-lingual data") {
    val full = Evaluation.accuracy(
      Ceaff.run(spark, fsCross, CeaffConfig()).matches, cross.test)
    for (m <- Seq(fsCross.ms, fsCross.mn, fsCross.ml)) {
      val single = Evaluation.accuracy(SimilarityMatrix.greedyMatch(m), cross.test)
      assert(full >= single, s"full $full below single-feature $single")
    }
  }

  test("disabling a feature changes the pipeline output accordingly") {
    val noStr = Ceaff.run(spark, fsMono, CeaffConfig(useString = false))
    assert(!noStr.weights.contains(Ceaff.Str))
    val noStruct = Ceaff.run(spark, fsCross, CeaffConfig(useStruct = false))
    assert(!noStruct.weights.contains(Ceaff.Struct))
    assert(math.abs(noStruct.weights.values.sum - 1.0) < 1e-9)
  }

  test("all features disabled is rejected") {
    intercept[IllegalArgumentException] {
      Ceaff.fuse(spark, fsMono,
        CeaffConfig(useStruct = false, useSemantic = false, useString = false))
    }
  }

  test("equal-weight fusion (w/o AFF) uses 1/k for each feature") {
    val r = Ceaff.fuse(spark, fsCross, CeaffConfig(adaptive = false))
    assert(r.weights.values.forall(v => math.abs(v - 1.0 / 3) < 1e-9))
  }

  test("fixed weights override the adaptive mechanism") {
    val w = Map(Ceaff.Struct -> 0.2, Ceaff.Sem -> 0.3, Ceaff.Str -> 0.5)
    val r = Ceaff.fuse(spark, fsCross, CeaffConfig(fixedWeights = Some(w)))
    assert(r.weights == w)
  }

  test("the fused matrix is a conical combination: fused <= sum of parts") {
    val fused = Ceaff.fuse(spark, fsCross, CeaffConfig()).fused
    val bound = fused.filter(col("score") > 1.0 + 1e-9).count()
    // all features are bounded by 1, weights sum to 1 -> fused <= 1
    assert(bound == 0, s"$bound fused cells exceed 1")
  }

  test("scoresOn returns the three per-pair feature scores for any domain") {
    import spark.implicits._
    val domain = cross.seeds.limit(5)
    val scored = Ceaff.scoresOn(spark, cross, fsCross, domain)
    assert(scored.count() == 5)
    assert(scored.columns.toSet == Set("src", "dst", Ceaff.Struct, Ceaff.Sem, Ceaff.Str))
    // seed pairs are anchored: structural similarity must be the
    // calibrated maximum (cosine 1 × CosineScale)
    val structs = scored.select(Ceaff.Struct).as[Double].collect()
    structs.foreach(s =>
      assert(math.abs(s - StructuralFeature.CosineScale) < 2 * StructuralFeature.JitterAmp,
        s"seed structural score $s"))
  }
}
