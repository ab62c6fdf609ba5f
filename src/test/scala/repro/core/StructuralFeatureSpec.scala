package repro.core

import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, Scenario}
import repro.{Fixtures, SparkSpec}

class StructuralFeatureSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private lazy val b = BenchmarkGen
    .generate(spark, Scenario.Dbp100kWd, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val ms = StructuralFeature.matrix(spark, b)

  test("embeddings cover every entity; norms are 1 (reached) or 0 (unreached)") {
    val (a1, _) = StructuralFeature.anchors(spark, b.seeds)
    val e = StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")),
      a1, side = 1)
    assert(e.count() == b.names1.count())
    val norms = e.select("vec").as[Seq[Double]].collect()
      .map(v => math.sqrt(v.map(x => x * x).sum))
    norms.foreach(n =>
      assert(math.abs(n - 1.0) < 1e-6 || n == 0.0, s"norm $n"))
    // on a dense KG with 30% seeds, nearly everything is reached
    val reached = norms.count(n => n > 0.5).toDouble / norms.length
    assert(reached > 0.9, s"only $reached of entities reached by anchors")
  }

  test("anchored seed entities keep their anchor vector after propagation") {
    val (a1, _) = StructuralFeature.anchors(spark, b.seeds)
    val e = StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")),
      a1, side = 1)
    val anchored = a1.select(col("id"), col("vec").as("anchor"))
      .join(e, Seq("id"))
      .as[(Long, Seq[Double], Seq[Double])]
      .collect()
    anchored.foreach { case (id, anchor, vec) =>
      assert(anchor == vec, s"seed $id drifted from its anchor")
    }
  }

  test("seed pairs share identical anchor vectors across the two KGs") {
    val (a1, a2) = StructuralFeature.anchors(spark, b.seeds)
    val paired = a1.select(col("id"), col("vec").as("v1"))
      .join(a2.select(col("id"), col("vec").as("v2")), Seq("id"))
      .as[(Long, Seq[Double], Seq[Double])].collect()
    assert(paired.nonEmpty)
    paired.foreach { case (id, v1, v2) => assert(v1 == v2, s"anchor mismatch for $id") }
  }

  test("the matrix spans exactly the test domain") {
    val nTest = b.test.count()
    assert(ms.count() == nTest * nTest)
    assert(ms.select("src").distinct().count() == nTest)
    assert(ms.select("dst").distinct().count() == nTest)
  }

  test("gold pairs score higher on average than mismatched pairs") {
    val diag = ms.filter(col("src") === col("dst")).agg(avg("score")).first().getDouble(0)
    val off = ms.filter(col("src") =!= col("dst")).agg(avg("score")).first().getDouble(0)
    assert(diag > off + 0.1, s"diag=$diag off=$off — no structural signal")
  }

  test("structure alone aligns a meaningful share of dense-KG entities") {
    val acc = Evaluation.accuracy(SimilarityMatrix.greedyMatch(ms), b.test)
    assert(acc > 0.2, s"accuracy $acc — structural feature is broken")
  }

  test("structural matrix is deterministic") {
    val again = StructuralFeature.matrix(spark, b)
    val a = cells(ms).sortBy(c => (c._1, c._2))
    val c2 = cells(again).sortBy(c => (c._1, c._2))
    assert(a.zip(c2).forall { case ((s1, d1, v1), (s2, d2, v2)) =>
      s1 == s2 && d1 == d2 && math.abs(v1 - v2) < 1e-12
    })
    again.unpersist()
  }

  test("more seeds (extraPairs) improve or maintain the structural signal") {
    // Promote half the test pairs to anchors — alignment of the rest
    // should not get worse.
    val extra = b.test.limit((b.test.count() / 2).toInt)
    val boosted = StructuralFeature.matrix(spark, b, extraPairs = Some(extra))
    val remaining = b.test.join(extra, Seq("src", "dst"), "left_anti")
    val base = Evaluation.accuracy(SimilarityMatrix.greedyMatch(ms), remaining)
    val more = Evaluation.accuracy(SimilarityMatrix.greedyMatch(boosted), remaining)
    assert(more >= base - 0.05, s"extra anchors degraded accuracy: $base -> $more")
    boosted.unpersist()
  }

  test("sparse KGs carry weaker structural signal than dense ones") {
    val sparse = BenchmarkGen
      .generate(spark, Scenario.SrprsWd, nGold = 150, nFringe = 50, seed = 7).cached()
    val msSparse = StructuralFeature.matrix(spark, sparse)
    val accDense = Evaluation.accuracy(SimilarityMatrix.greedyMatch(ms), b.test)
    val accSparse = Evaluation.accuracy(SimilarityMatrix.greedyMatch(msSparse), sparse.test)
    assert(accSparse < accDense + 0.05,
      s"sparse=$accSparse dense=$accDense — paper's density ordering violated")
    msSparse.unpersist()
    sparse.unpersistAll()
  }
}
