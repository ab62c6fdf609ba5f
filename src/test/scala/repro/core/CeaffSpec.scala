package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.JobCount
import repro.kg.{BenchmarkGen, EaBenchmark, Scenario}
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
    def persistent = spark.sparkContext.getPersistentRDDs.keySet
    val before = persistent
    val fs = Ceaff.features(spark, b)
    Seq(fs.ms, fs.mn, fs.ml).foreach(_.count())
    val withFeatures = persistent
    val r = Ceaff.run(spark, fs, CeaffConfig())
    assert(r.matches.count() == b.test.count())
    assert(persistent == withFeatures, "Ceaff.run persisted an RDD")
    fs.unpersistAll()
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
    b.unpersistAll()
  }

  /** A matrix's or embedding table's values by key, as raw bits, so that
    * equality is exact `Double` equality.
    */
  private def scoreBits(m: DataFrame): Map[(Long, Long), Long] =
    cells(m).map { case (s, d, v) => (s, d) -> java.lang.Double.doubleToRawLongBits(v) }.toMap
  private def vectorBits(e: EntityTables.Vectors): Map[Long, Seq[Long]] =
    e.map { case (id, v) => id -> v.toSeq.map(java.lang.Double.doubleToRawLongBits) }

  /** The per-layer composition of `Ceaff.features`: one propagation and
    * one name-embedding table per side, then one matrix per feature.
    */
  private def perLayer(b: EaBenchmark): FeatureSet = {
    val (a1, a2) = StructuralFeature.anchors(spark, b.seeds)
    val se1 = StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")), a1, side = 1)
    val se2 = StructuralFeature.embed(spark, b.triples2, b.names2.select(col("id")), a2, side = 2)
    val ne1 = SemanticFeature.nameEmbeddings(spark, b.names1, b.dict1, BenchmarkGen.Dim)
    val ne2 = SemanticFeature.nameEmbeddings(spark, b.names2, b.dict2, BenchmarkGen.Dim)
    val domain = SimilarityMatrix.testDomain(b.test)
    FeatureSet(se1, se2, ne1, ne2,
      StructuralFeature.calibrate(SimilarityMatrix.cosineCross(se1, se2, domain)),
      SimilarityMatrix.cosineCross(ne1, ne2, domain),
      StringFeature.matrix(spark, b))
  }

  test("features equal the per-layer composition, bit for bit") {
    val want = perLayer(cross)
    Seq(Ceaff.Struct, Ceaff.Sem, Ceaff.Str).foreach { f =>
      assert(scoreBits(fsCross.matrix(f)) == scoreBits(want.matrix(f)), s"$f matrix")
    }
    assert(vectorBits(fsCross.struct1) == vectorBits(want.struct1))
    assert(vectorBits(fsCross.struct2) == vectorBits(want.struct2))
    assert(vectorBits(fsCross.sem1) == vectorBits(want.sem1))
    assert(vectorBits(fsCross.sem2) == vectorBits(want.sem2))
  }

  test("a feature set built from its seven fields gives the same weights and matchings") {
    val fs = fsCross
    def relation(v: EntityTables.Vectors) = EntityTables.relation(spark, v)
    val seven = FeatureSet(relation(fs.struct1), relation(fs.struct2), relation(fs.sem1),
      relation(fs.sem2), fs.ms, fs.mn, fs.ml)
    val lr = LRFusion.learnWeights(spark, cross, fs)
    assert(LRFusion.learnWeights(spark, cross, seven) == lr)
    assert(LRFusion.learnWeights(spark, cross, perLayer(cross)) == lr)
    Seq(CeaffConfig(), CeaffConfig(collective = false, adaptive = false),
        CeaffConfig(fixedWeights = Some(lr), collective = false)).foreach { cfg =>
      def out(f: FeatureSet) = { val r = Ceaff.run(spark, f, cfg); (matchMap(r.matches), r.weights) }
      assert(out(seven) == out(fs), cfg.toString)
    }
  }

  /** Jobs of `Ceaff.features` on a fresh benchmark (one collect per table
    * it reads: each KG's edges, names and dictionary, the seed pairs and the
    * test pairs), an equal-weight `Ceaff.run` (none) and the driver
    * `Evaluation.accuracy` on the test pairs `features` read (none).
    */
  private val MaxJobs = 8

  test("features, an equal-weight run and its accuracy stay within their job count") {
    val b = BenchmarkGen
      .generate(spark, Scenario.SrprsEnFr, nGold = 60, nFringe = 20, seed = 3).cached()
    Seq(b.triples1, b.triples2, b.names1, b.names2, b.dict1, b.dict2, b.seeds, b.test)
      .foreach(_.count())
    val ((fs, r), jobs) = JobCount(spark.sparkContext) {
      val fs = Ceaff.features(spark, b)
      val r = Ceaff.run(spark, fs, CeaffConfig(collective = false, adaptive = false))
      Evaluation.accuracy(r.matching, b.testPairs)
      (fs, r)
    }
    fs.unpersistAll(); b.unpersistAll()
    info(s"$jobs Spark jobs, bound $MaxJobs")
    assert(jobs <= MaxJobs, s"$jobs Spark jobs")
  }

  test("once features have run on a benchmark, reusing it starts no Spark job") {
    val b = BenchmarkGen
      .generate(spark, Scenario.SrprsEnFr, nGold = 60, nFringe = 20, seed = 3).cached()
    val fs = Ceaff.features(spark, b)
    val r = Ceaff.run(spark, fs, CeaffConfig())
    val calls: Seq[(String, () => Any)] = Seq(
      "Ceaff.features" -> (() => Ceaff.features(spark, b)),
      "LRFusion.learnWeights" -> (() => LRFusion.learnWeights(spark, b, fs)),
      "Evaluation.accuracy" -> (() => Evaluation.accuracy(r.matching, b.testPairs))) ++
      Seq("structShallow", "structDeep", "structBootstrap")
        .map(n => s"Baselines.matrix($n)" -> (() => Baselines.matrix(b, fs, n)))
    val jobs = calls.map { case (name, call) => name -> JobCount(spark.sparkContext)(call())._2 }
    assert(jobs.forall(_._2 == 0), jobs.filter(_._2 > 0).mkString(", "))

    // A copy reads its tables afresh: a smaller test split, a smaller grid.
    import spark.implicits._
    val part = b.testPairs.take(7)
    val fsPart = Ceaff.features(spark, b.copy(test = part.toDF("src", "dst")))
    Seq(Ceaff.Struct, Ceaff.Sem, Ceaff.Str).foreach { f =>
      val m = fsPart.local(f)
      assert(m.srcs.toSeq == part.map(_._1).sorted && m.dsts.toSeq == part.map(_._2).sorted, f)
    }
    b.unpersistAll()
  }

  test("edge inputs: #src != #dst, an all-OOV name and a source no anchor reaches") {
    import spark.implicits._
    // KG1: sources 0-2 are tested, 3 and 4 are seeds; 2 reaches anchor 3
    // only over three hops (2-5-6-3). KG2: targets 10-13 are tested, 14 and
    // 15 are seeds. Source 1's tokens are all out of vocabulary.
    def triples(es: (Long, Long)*) = es.map { case (s, d) => (s, 0L, d) }.toDF("src", "rel", "dst")
    val words = Seq("alpha", "beta", "gamma", "delta", "omega", "seed", "far")
    val dict = words.map(w => (w, repro.text.HashVectors.unitGaussian(s"w:$w", BenchmarkGen.Dim).toSeq))
      .toDF("token", "vec")
    val edge = cross.copy(
      triples1 = triples(0L -> 3L, 1L -> 4L, 2L -> 5L, 5L -> 6L, 6L -> 3L),
      triples2 = triples(10L -> 14L, 11L -> 15L, 12L -> 14L, 13L -> 15L),
      names1 = namesTable(0L -> "alpha beta", 1L -> "qqq zzz", 2L -> "gamma", 3L -> "seed",
        4L -> "seed alpha", 5L -> "far", 6L -> "far beta"),
      names2 = namesTable(10L -> "alpha beta", 11L -> "delta", 12L -> "gamma", 13L -> "omega",
        14L -> "seed", 15L -> "seed alpha"),
      dict1 = dict, dict2 = dict,
      seeds = Seq((3L, 14L), (4L, 15L)).toDF("src", "dst"),
      test = Seq((0L, 10L), (1L, 11L), (2L, 12L), (2L, 13L)).toDF("src", "dst"))
    val fs = Ceaff.features(spark, edge)

    val daa = Ceaff.run(spark, fs, CeaffConfig()).matching
    assert(daa.size == 3 && daa.map(_._2).distinct.size == 3, daa)
    val indep = Ceaff.run(spark, fs, CeaffConfig(collective = false)).matching
    assert(indep.map(_._1).sorted == Seq(0L, 1L, 2L), indep)

    val mn = fs.local(Ceaff.Sem)
    val oov = mn.srcs.indexOf(1L)
    assert((0 until mn.cols).forall(c => mn.score(oov * mn.cols + c) == 0.0), "all-OOV row of M^n")
    assert(fs.struct1(2L).forall(_ == 0.0), "unreached source has a structural vector")
    assert(Seq(10L, 11L, 12L, 13L).forall(d => EntityTables.cosine(fs.struct1, fs.struct2, 2L, d) == 0.0))
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
          (matchMap(r.matches), r.weights)
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

  test("a full run starts no Spark job, and its accuracy one") {
    // Fill the gold cache first: only the evaluation's own jobs count.
    cross.test.count()
    val (r, runJobs) = JobCount(spark.sparkContext)(Ceaff.run(spark, fsCross, CeaffConfig()))
    val (_, evalJobs) = JobCount(spark.sparkContext)(Evaluation.accuracy(r.matches, cross.test))
    info(s"run: $runJobs Spark jobs, accuracy: $evalJobs")
    assert(runJobs == 0, s"$runJobs Spark jobs in Ceaff.run")
    assert(evalJobs <= 1, s"$evalJobs Spark jobs in Evaluation.accuracy")
  }

  test("features produces three full matrices") {
    val n = mono.test.count()
    Seq(Ceaff.Struct, Ceaff.Sem, Ceaff.Str).foreach { f =>
      assert(fsMono.local(f).rows == n && fsMono.local(f).cols == n, f)
      assert(fsMono.matrix(f).count() == n * n, f)
    }
  }

  test("full CEAFF run yields a 1-1 matching over all test entities") {
    val m = matchMap(Ceaff.run(spark, fsMono, CeaffConfig()).matches)
    assert(m.size == mono.test.count())
    assert(m.values.toSet.size == m.size, "matching is not injective")
  }

  test("effective fusion weights form a distribution over enabled features") {
    val w = Ceaff.run(spark, fsCross, CeaffConfig()).weights
    assert(w.keySet == Set(Ceaff.Struct, Ceaff.Sem, Ceaff.Str))
    assert(math.abs(w.values.sum - 1.0) < 1e-9, w.toString)
    assert(w.values.forall(_ >= 0.0))
  }

  test("CEAFF reaches near-perfect accuracy on mono-lingual data (paper Table IV)") {
    val acc = Evaluation.accuracy(Ceaff.run(spark, fsMono, CeaffConfig()).matches, mono.test)
    assert(acc > 0.95, s"mono CEAFF accuracy $acc")
  }

  test("collective decisions beat independent ones on cross-lingual data (w/o C ablation)") {
    def acc(cfg: CeaffConfig) = Evaluation.accuracy(Ceaff.run(spark, fsCross, cfg).matches, cross.test)
    val coll = acc(CeaffConfig())
    val indep = acc(CeaffConfig(collective = false))
    assert(coll >= indep, s"collective $coll < independent $indep")
  }

  test("CEAFF beats every single feature alone on cross-lingual data") {
    val full = Evaluation.accuracy(Ceaff.run(spark, fsCross, CeaffConfig()).matches, cross.test)
    for (m <- Seq(fsCross.ms, fsCross.mn, fsCross.ml)) {
      val single = Evaluation.accuracy(SimilarityMatrix.greedyMatch(m), cross.test)
      assert(full >= single, s"full $full below single-feature $single")
    }
  }

  test("disabling a feature changes the pipeline output accordingly") {
    val noStr = Ceaff.run(spark, fsMono, CeaffConfig(useString = false)).weights
    assert(!noStr.contains(Ceaff.Str))
    val noStruct = Ceaff.run(spark, fsCross, CeaffConfig(useStruct = false)).weights
    assert(!noStruct.contains(Ceaff.Struct))
    assert(math.abs(noStruct.values.sum - 1.0) < 1e-9)
  }

  test("all features disabled is rejected") {
    intercept[IllegalArgumentException] {
      Ceaff.run(spark, fsMono,
        CeaffConfig(useStruct = false, useSemantic = false, useString = false))
    }
  }

  test("equal-weight fusion (w/o AFF) uses 1/k for each feature") {
    val r = Ceaff.run(spark, fsCross, CeaffConfig(adaptive = false))
    assert(r.weights.values.forall(v => math.abs(v - 1.0 / 3) < 1e-9))
  }

  test("fixed weights override the adaptive mechanism") {
    val w = Map(Ceaff.Struct -> 0.2, Ceaff.Sem -> 0.3, Ceaff.Str -> 0.5)
    val r = Ceaff.run(spark, fsCross, CeaffConfig(fixedWeights = Some(w)))
    assert(r.weights == w)
  }

  test("the fused matrix is a conical combination: fused <= sum of parts") {
    val fused = Ceaff.run(spark, fsCross, CeaffConfig()).fused
    val bound = fused.filter(col("score") > 1.0 + 1e-9).count()
    // all features are bounded by 1, weights sum to 1 -> fused <= 1
    assert(bound == 0, s"$bound fused cells exceed 1")
  }

  test("scoresOn returns the three per-pair feature scores for any domain") {
    import spark.implicits._
    val pairs = cross.seeds.limit(5).select("src", "dst").as[(Long, Long)].collect().toSeq
    val scored = Ceaff.scoresOn(cross, fsCross, pairs, Seq(Ceaff.Struct, Ceaff.Sem, Ceaff.Str))
    assert(scored.size == 5)
    assert(scored.forall(_.length == 3))
    // seed pairs are anchored: structural similarity must be the
    // calibrated maximum (cosine 1 × CosineScale)
    val structs = scored.map(_(0))
    structs.foreach(s =>
      assert(math.abs(s - StructuralFeature.CosineScale) < 2 * StructuralFeature.JitterAmp,
        s"seed structural score $s"))
  }
}
