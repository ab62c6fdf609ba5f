package repro.core

import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, Scenario}
import repro.text.Levenshtein
import repro.{Fixtures, Oracle, SparkSpec}

class StringFeatureSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private lazy val mono = BenchmarkGen
    .generate(spark, Scenario.SrprsWd, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val zh = BenchmarkGen
    .generate(spark, Scenario.Dbp15kZhEn, nGold = 150, nFringe = 50, seed = 7).cached()

  test("string matrix spans the test domain with scores in [0,1]") {
    val m = StringFeature.matrix(spark, mono).cache()
    val n = mono.test.count()
    assert(m.count() == n * n)
    assert(m.filter(col("score") < 0 || col("score") > 1).count() == 0)
    m.unpersist()
  }

  test("matrix cells equal the driver-side Levenshtein ratio") {
    val m = StringFeature.matrix(spark, mono)
    val sample = m.limit(200)
      .join(mono.names1.select(col("id").as("src"), col("name").as("n1")), Seq("src"))
      .join(mono.names2.select(col("id").as("dst"), col("name").as("n2")), Seq("dst"))
      .select("n1", "n2", "score").as[(String, String, Double)].collect()
    sample.foreach { case (a, bb, s) =>
      assert(math.abs(s - Levenshtein.ratio(a, bb)) < 1e-12, s"'$a' vs '$bb'")
    }
  }

  test("oracle: unit-cost Levenshtein matches DuckDB's levenshtein()") {
    val pairs = Seq(
      ("kitten", "sitting"), ("flaw", "lawn"), ("abc", "abc"),
      ("", "abc"), ("banana", "bandana"), ("paris", "prais"))
    val driverSide = pairs.map { case (a, b) => (a, b, Levenshtein.lev(a, b)) }.toDF("a", "b", "d")
    Oracle.assertEquivalent(driverSide,
      "SELECT a, b, CAST(levenshtein(a, b) AS INT) AS d FROM p",
      "p" -> pairs.toDF("a", "b"))

    // M^l on a rectangular test domain (3 sources x 4 targets) where source
    // 2 and target 13 have no name: their cells score 0. DuckDB has no
    // lev*, so the ratio is computed from lev* = |a| + |b| - 2·LCS(a, b),
    // the LCS by trying every subsequence of a as a LIKE pattern on b.
    val b = mono.copy(
      names1 = namesTable((0L, "paris"), (1L, "")),
      names2 = namesTable((10L, "prais"), (11L, "banana"), (12L, "")),
      test = Seq((0L, 10L), (1L, 11L), (2L, 12L), (2L, 13L)).toDF("src", "dst"))
    Oracle.assertEquivalent(StringFeature.matrix(spark, b),
      """WITH dom AS (SELECT s.src, d.dst FROM (SELECT DISTINCT src FROM t) s,
        |                                     (SELECT DISTINCT dst FROM t) d),
        |     named AS (SELECT dom.src, dom.dst, n1.name AS a, n2.name AS b
        |               FROM dom JOIN n1 ON dom.src = n1.id JOIN n2 ON dom.dst = n2.id),
        |     subseqs AS (SELECT src, dst, a, b, unnest(range(0, 1 << length(a))) AS mask FROM named),
        |     lcs AS (SELECT src, dst, a, b, max(bit_count(mask)) AS l FROM subseqs
        |             WHERE b LIKE '%' || coalesce(array_to_string(list_transform(
        |               list_filter(range(1, length(a) + 1), k -> (mask >> (k - 1)) & 1 = 1),
        |               k -> substring(a, k, 1)), '%'), '') || '%'
        |             GROUP BY src, dst, a, b)
        |SELECT dom.src AS src, dom.dst AS dst,
        |       CASE WHEN lcs.src IS NULL THEN 0.0
        |            WHEN length(a) + length(b) = 0 THEN 1.0
        |            ELSE 2.0 * l / (length(a) + length(b)) END AS score
        |FROM dom LEFT JOIN lcs ON dom.src = lcs.src AND dom.dst = lcs.dst""".stripMargin,
      "t" -> b.test, "n1" -> b.names1.select("id", "name"), "n2" -> b.names2.select("id", "name"))
  }

  test("mono-lingual gold pairs have near-perfect string similarity") {
    val m = StringFeature.matrix(spark, mono)
    val diag = m.filter(col("src") === col("dst")).agg(avg("score")).first().getDouble(0)
    assert(diag > 0.9, s"mono diag mean $diag")
  }

  test("string feature alone nearly solves mono-lingual alignment") {
    val acc = Evaluation.accuracy(
      SimilarityMatrix.greedyMatch(StringFeature.matrix(spark, mono)), mono.test)
    assert(acc > 0.8, s"mono string-only accuracy $acc")
  }

  test("string feature is useless on distant language pairs") {
    val m = StringFeature.matrix(spark, zh)
    val diag = m.filter(col("src") === col("dst")).agg(avg("score")).first().getDouble(0)
    assert(diag < 0.1, s"ZH-EN diag mean $diag — script separation broken")
  }
}
