package repro.core

import repro.kg.{BenchmarkGen, Scenario}
import repro.{Fixtures, SparkSpec}

class LRFusionSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private lazy val b = BenchmarkGen
    .generate(spark, Scenario.SrprsEnFr, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val fs = Ceaff.features(spark, b)

  test("trainingDomain has one positive and up to 10 negatives per seed pair") {
    val d = LRFusion.trainingDomain(b)
    val seeds = b.seeds.select("src", "dst").as[(Long, Long)].collect().toSet
    assert(d.count(_._3 == 1.0) == seeds.size)
    val perSrc = d.groupMapReduce(_._1)(_ => 1)(_ + _)
    perSrc.values.foreach(c => assert(c >= 2 && c <= 1 + LRFusion.NegativesPerPositive))
    // negatives never duplicate the positive pair
    assert(d.filter(_._3 == 0.0).count { case (s, t, _) => seeds((s, t)) } == 0)
  }

  test("trainingDomain is deterministic in its seed") {
    assert(LRFusion.trainingDomain(b, seed = 5) == LRFusion.trainingDomain(b, seed = 5))
  }

  test("fitLogistic separates linearly separable data") {
    val rows = (0 until 200).map { i =>
      val x = i / 200.0
      (Array(x), if (x > 0.5) 1.0 else 0.0)
    }.toArray
    val w = LRFusion.fitLogistic(rows)
    assert(w(0) > 0, s"weight ${w(0)} should be positive for a positively correlated feature")
  }

  test("fitLogistic gives near-zero weight to an uninformative feature") {
    val rnd = new scala.util.Random(3)
    val rows = (0 until 400).map { i =>
      val y = if (i % 2 == 0) 1.0 else 0.0
      (Array(y * 0.8 + rnd.nextDouble() * 0.2, rnd.nextDouble()), y)
    }.toArray
    val w = LRFusion.fitLogistic(rows)
    assert(w(0) > math.abs(w(1)), s"informative ${w(0)} vs noise ${w(1)}")
  }

  test("fitLogistic rejects empty input") {
    intercept[IllegalArgumentException] { LRFusion.fitLogistic(Array.empty) }
  }

  test("learned weights are a distribution over the three features") {
    val w = LRFusion.learnWeights(spark, b, fs)
    assert(w.keySet == Set(Ceaff.Struct, Ceaff.Sem, Ceaff.Str))
    assert(math.abs(w.values.sum - 1.0) < 1e-9)
    assert(w.values.forall(v => v >= 0.0 && v <= 1.0))
  }

  test("LR-weighted fusion aligns competitively on EN-FR") {
    val w = LRFusion.learnWeights(spark, b, fs)
    val r = Ceaff.run(spark, fs, CeaffConfig(fixedWeights = Some(w)))
    val acc = Evaluation.accuracy(r.matches, b.test)
    assert(acc > 0.5, s"LR accuracy $acc — learned weights unusable")
  }
}
