package repro.core

import repro.kg.{BenchmarkGen, Scenario}
import repro.{Fixtures, SparkSpec}

class BaselinesSpec extends SparkSpec with Fixtures {

  private lazy val dense = BenchmarkGen
    .generate(spark, Scenario.Dbp15kFrEn, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val fsDense = Ceaff.features(spark, dense)

  test("every roster baseline produces a full test-domain matrix") {
    val n = dense.test.count()
    Baselines.names.foreach { name =>
      Baselines.withMatrix(spark, dense, fsDense, name) { m =>
        assert(m.count() == n * n, s"$name matrix incomplete")
      }
    }
  }

  test("the standard structural baseline is CEAFF's own M^s") {
    Baselines.withMatrix(spark, dense, fsDense, "structStandard") { m =>
      assert(m eq fsDense.ms)
    }
  }

  test("every baseline releases the caches it makes") {
    val b = BenchmarkGen
      .generate(spark, Scenario.Dbp15kFrEn, nGold = 60, nFringe = 20, seed = 3).cached()
    Seq(b.triples1, b.triples2, b.names1, b.names2, b.dict1, b.dict2, b.seeds, b.test)
      .foreach(_.count())
    // The session is shared with every other suite: compare, do not
    // expect an empty set.
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val fs = Ceaff.features(spark, b)
    Seq(fs.semEmb1, fs.semEmb2, fs.ms, fs.mn, fs.ml).foreach(_.count())
    val withFeatures = spark.sparkContext.getPersistentRDDs.keySet
    assert(withFeatures != before)
    Baselines.names.foreach { name =>
      Baselines.accuracy(spark, b, fs, name)
      // fs's caches are the caller's: intact, and nothing else left.
      assert(spark.sparkContext.getPersistentRDDs.keySet == withFeatures,
        s"$name left a cache behind or released one of fs")
    }
    fs.unpersistAll()
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
    b.unpersistAll()
  }

  test("unknown baseline name is rejected") {
    intercept[IllegalArgumentException] {
      Baselines.withMatrix(spark, dense, fsDense, "nope")(identity)
    }
  }

  test("depth pays off more on sparse KGs than on dense ones (RSNs-on-SRPRS shape)") {
    // On dense KGs the 1-hop seed fingerprint is already sharp; on sparse
    // KGs long-range propagation is what recovers signal — the paper's
    // observation that RSNs overtakes shallow-structure methods on SRPRS.
    val sparse = BenchmarkGen
      .generate(spark, Scenario.SrprsEnFr, nGold = 150, nFringe = 50, seed = 7).cached()
    val fsSparse = Ceaff.features(spark, sparse)
    val gainDense = Baselines.accuracy(spark, dense, fsDense, "structStandard") -
      Baselines.accuracy(spark, dense, fsDense, "structShallow")
    val gainSparse = Baselines.accuracy(spark, sparse, fsSparse, "structStandard") -
      Baselines.accuracy(spark, sparse, fsSparse, "structShallow")
    assert(gainSparse > gainDense,
      s"depth gain sparse=$gainSparse should exceed dense=$gainDense")
    fsSparse.unpersistAll()
    sparse.unpersistAll()
  }

  test("bootstrapping does not collapse the structural signal") {
    val standard = Baselines.accuracy(spark, dense, fsDense, "structStandard")
    val boot = Baselines.accuracy(spark, dense, fsDense, "structBootstrap")
    assert(boot >= standard - 0.1, s"bootstrap $boot vs standard $standard")
  }

  test("representation-level name fusion beats structure-only (paper's 2nd group > 1st group)") {
    val rep = Baselines.accuracy(spark, dense, fsDense, "repFusion")
    val structOnly = Baselines.accuracy(spark, dense, fsDense, "structStandard")
    assert(rep > structOnly, s"repFusion $rep vs structOnly $structOnly")
  }

  test("baseline accuracies are within [0,1]") {
    Baselines.names.foreach { name =>
      val a = Baselines.accuracy(spark, dense, fsDense, name)
      assert(a >= 0.0 && a <= 1.0, s"$name accuracy $a")
    }
  }
}
