package repro.core

import repro.{Fixtures, Oracle, SparkSpec}

class EvaluationSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private def gold = Seq((0L, 0L), (1L, 1L), (2L, 2L), (3L, 3L)).toDF("src", "dst")

  test("accuracy counts exact matches over all gold pairs") {
    val matches = Seq((0L, 0L), (1L, 2L), (2L, 2L)).toDF("src", "dst")
    // correct: (0,0), (2,2); wrong: (1,2); unmatched: 3
    assert(Evaluation.accuracy(matches, gold) == 0.5)
  }

  test("accuracy is 1 for a perfect matching and 0 for a disjoint one") {
    assert(Evaluation.accuracy(gold, gold) == 1.0)
    val wrong = Seq((0L, 1L), (1L, 0L), (2L, 3L), (3L, 2L)).toDF("src", "dst")
    assert(Evaluation.accuracy(wrong, gold) == 0.0)
  }

  test("accuracy rejects an empty gold set") {
    intercept[IllegalArgumentException] {
      Evaluation.accuracy(gold, gold.limit(0))
    }
  }

  test("oracle: accuracy numerator agrees with DuckDB") {
    // Gold source 3 is unmatched; source 1 has two targets, one of them
    // right. The denominator stays the number of gold rows.
    val matches = Seq((0L, 0L), (1L, 2L), (1L, 1L), (2L, 3L)).toDF("src", "dst")
    Oracle.assertEquivalent(Seq(Evaluation.accuracy(matches, gold)).toDF("acc"),
      """SELECT CAST(count(*) AS DOUBLE) / (SELECT count(*) FROM gold) AS acc
        |FROM gold g JOIN m ON g.src = m.src AND g.dst = m.dst""".stripMargin,
      "gold" -> gold, "m" -> matches)
  }

  test("rankingMetrics computes Hits@1, Hits@10 and MRR") {
    // 2x2: gold (0,0) ranked 1st; gold (1,1) ranked 2nd.
    val m = denseMat(Seq(Seq(0.9, 0.1), Seq(0.8, 0.2)))
    val g = Seq((0L, 0L), (1L, 1L)).toDF("src", "dst")
    val r = Evaluation.rankingMetrics(m, g)
    assert(r.hitsAt1 == 0.5)
    assert(r.hitsAt10 == 1.0)
    assert(math.abs(r.mrr - (1.0 + 0.5) / 2) < 1e-12)
  }

  test("rankingMetrics rank ties break by ascending target id") {
    val m = mat(Seq((0L, 0L, 0.5), (0L, 1L, 0.5)))
    val g = Seq((0L, 1L)).toDF("src", "dst")
    // tie: dst 0 ranks first, gold dst 1 ranks second
    assert(Evaluation.rankingMetrics(m, g).hitsAt1 == 0.0)
    assert(Evaluation.rankingMetrics(m, g).mrr == 0.5)
  }

  test("rankingMetrics treats gold pairs absent from the matrix as misses") {
    val m = mat(Seq((0L, 0L, 0.9)))
    val g = Seq((0L, 0L), (5L, 5L)).toDF("src", "dst")
    val r = Evaluation.rankingMetrics(m, g)
    assert(r.hitsAt1 == 0.5)
    assert(r.mrr == 0.5)
  }

  test("rankingMetrics beyond rank 10 counts for MRR but not Hits@10") {
    val row = (0L until 12L).map(j => (0L, j, 1.0 - j.toDouble / 100))
    val g = Seq((0L, 11L)).toDF("src", "dst") // ranked 12th
    val r = Evaluation.rankingMetrics(mat(row), g)
    assert(r.hitsAt1 == 0.0 && r.hitsAt10 == 0.0)
    assert(math.abs(r.mrr - 1.0 / 12) < 1e-12)
  }

  test("hits@1 equals greedy accuracy when ranks are unambiguous") {
    val m = denseMat(Seq(Seq(0.9, 0.1, 0.3), Seq(0.2, 0.4, 0.6), Seq(0.1, 0.8, 0.2)))
    val g = Seq((0L, 0L), (1L, 1L), (2L, 2L)).toDF("src", "dst")
    val acc = Evaluation.accuracy(SimilarityMatrix.greedyMatch(m), g)
    assert(Evaluation.rankingMetrics(m, g).hitsAt1 == acc)
  }
}
