package repro.core

import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, EaBenchmark, Scenario}
import repro.{Fixtures, SparkSpec}

class SemanticFeatureSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private lazy val mono = BenchmarkGen
    .generate(spark, Scenario.SrprsWd, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val zh = BenchmarkGen
    .generate(spark, Scenario.Dbp15kZhEn, nGold = 150, nFringe = 50, seed = 7).cached()

  /** `M^n` over the test domain, as `Ceaff.features` builds it. */
  private def semMatrix(b: EaBenchmark) = SimilarityMatrix.cosineCross(
    SemanticFeature.nameEmbeddings(spark, b.names1, b.dict1, BenchmarkGen.Dim),
    SemanticFeature.nameEmbeddings(spark, b.names2, b.dict2, BenchmarkGen.Dim),
    SimilarityMatrix.testDomain(b.test))

  test("nameEmbeddings covers every named entity") {
    val e = SemanticFeature.nameEmbeddings(spark, mono.names1, mono.dict1, BenchmarkGen.Dim)
    assert(e.count() == mono.names1.count())
  }

  test("nameEmbeddings averages token vectors") {
    val names = Seq((0L, "a b", Seq("a", "b"), Seq(1L, 2L))).toDF("id", "name", "tokens", "concepts")
    val dict = Seq(("a", Seq(1.0, 0.0)), ("b", Seq(0.0, 1.0))).toDF("token", "vec")
    val got = SemanticFeature.nameEmbeddings(spark, names, dict, 2)
      .as[(Long, Seq[Double])].collect().toMap
    assert(got(0L) == Seq(0.5, 0.5))
  }

  test("OOV tokens are skipped; all-OOV names get the zero vector") {
    val names = Seq(
      (0L, "a x", Seq("a", "x"), Seq(1L, 2L)),
      (1L, "y z", Seq("y", "z"), Seq(3L, 4L))).toDF("id", "name", "tokens", "concepts")
    val dict = Seq(("a", Seq(1.0, 0.0))).toDF("token", "vec")
    val got = SemanticFeature.nameEmbeddings(spark, names, dict, 2)
      .as[(Long, Seq[Double])].collect().toMap
    assert(got(0L) == Seq(1.0, 0.0)) // only 'a' counted
    assert(got(1L) == Seq(0.0, 0.0)) // all OOV
  }

  test("semantic matrix spans the test domain") {
    val m = semMatrix(mono)
    val n = mono.test.count()
    assert(m.count() == n * n)
  }

  test("gold pairs are semantically closer than mismatches (mono-lingual)") {
    val m = semMatrix(mono).cache()
    val diag = m.filter(col("src") === col("dst")).agg(avg("score")).first().getDouble(0)
    val off = m.filter(col("src") =!= col("dst")).agg(avg("score")).first().getDouble(0)
    assert(diag > off + 0.3, s"diag=$diag off=$off")
    m.unpersist()
  }

  test("semantic signal survives the language barrier but degrades (ZH-EN vs mono)") {
    val mm = semMatrix(mono).cache()
    val mz = semMatrix(zh).cache()
    val accMono = Evaluation.accuracy(SimilarityMatrix.greedyMatch(mm), mono.test)
    val accZh = Evaluation.accuracy(SimilarityMatrix.greedyMatch(mz), zh.test)
    assert(accZh > 0.15, s"ZH-EN semantic accuracy $accZh — no cross-lingual signal")
    assert(accZh < accMono, s"ZH-EN ($accZh) should be harder than mono ($accMono)")
    mm.unpersist(); mz.unpersist()
  }

  test("semantic accuracy beats string accuracy on distant languages") {
    val sem = Evaluation.accuracy(
      SimilarityMatrix.greedyMatch(semMatrix(zh)), zh.test)
    val str = Evaluation.accuracy(
      SimilarityMatrix.greedyMatch(StringFeature.matrix(spark, zh)), zh.test)
    assert(sem > str, s"sem=$sem str=$str — paper's ZH-EN feature ordering violated")
  }
}
