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
      val m = Baselines.matrix(dense, fsDense, name)
      assert(m.rows == n && m.cols == n, s"$name matrix is ${m.rows} x ${m.cols}")
    }
  }

  test("the standard structural baseline is CEAFF's own M^s") {
    assert(Baselines.matrix(dense, fsDense, "structStandard") eq fsDense.local(Ceaff.Struct))
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
    Seq(fs.ms, fs.mn, fs.ml).foreach(_.count())
    // The feature set is held on the driver: it caches nothing.
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
    Baselines.names.foreach { name =>
      Baselines.accuracy(b, fs, name)
      assert(spark.sparkContext.getPersistentRDDs.keySet == before, s"$name left a cache behind")
    }
    b.unpersistAll()
  }

  test("unknown baseline name is rejected") {
    intercept[IllegalArgumentException] {
      Baselines.matrix(dense, fsDense, "nope")
    }
  }

  test("depth pays off more on sparse KGs than on dense ones (RSNs-on-SRPRS shape)") {
    // On dense KGs the 1-hop seed fingerprint is already sharp; on sparse
    // KGs long-range propagation is what recovers signal — the paper's
    // observation that RSNs overtakes shallow-structure methods on SRPRS.
    val sparse = BenchmarkGen
      .generate(spark, Scenario.SrprsEnFr, nGold = 150, nFringe = 50, seed = 7).cached()
    val fsSparse = Ceaff.features(spark, sparse)
    val gainDense = Baselines.accuracy(dense, fsDense, "structStandard") -
      Baselines.accuracy(dense, fsDense, "structShallow")
    val gainSparse = Baselines.accuracy(sparse, fsSparse, "structStandard") -
      Baselines.accuracy(sparse, fsSparse, "structShallow")
    assert(gainSparse > gainDense,
      s"depth gain sparse=$gainSparse should exceed dense=$gainDense")
    fsSparse.unpersistAll()
    sparse.unpersistAll()
  }

  test("bootstrapping does not collapse the structural signal") {
    val standard = Baselines.accuracy(dense, fsDense, "structStandard")
    val boot = Baselines.accuracy(dense, fsDense, "structBootstrap")
    assert(boot >= standard - 0.1, s"bootstrap $boot vs standard $standard")
  }

  test("representation-level name fusion beats structure-only (paper's 2nd group > 1st group)") {
    val rep = Baselines.accuracy(dense, fsDense, "repFusion")
    val structOnly = Baselines.accuracy(dense, fsDense, "structStandard")
    assert(rep > structOnly, s"repFusion $rep vs structOnly $structOnly")
  }

  test("baseline accuracies are within [0,1]") {
    Baselines.names.foreach { name =>
      val a = Baselines.accuracy(dense, fsDense, name)
      assert(a >= 0.0 && a <= 1.0, s"$name accuracy $a")
    }
  }
}
