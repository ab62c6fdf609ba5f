package repro.core

import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}

class SimilarityMatrixSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private val m = denseMat(Seq(
    Seq(0.9, 0.3, 0.2),
    Seq(0.85, 0.8, 0.3),
    Seq(0.2, 0.7, 0.65)))

  test("greedyMatch picks the row argmax") {
    assert(matchMap(SimilarityMatrix.greedyMatch(m)) == Map(0L -> 0L, 1L -> 0L, 2L -> 1L))
  }

  test("greedyMatch breaks score ties towards the smaller target id") {
    val tied = mat(Seq((0L, 5L, 0.7), (0L, 2L, 0.7), (0L, 9L, 0.1)))
    assert(matchMap(SimilarityMatrix.greedyMatch(tied)) == Map(0L -> 2L))
  }

  private val argmaxSql =
    """SELECT src, dst FROM (
      |  SELECT src, dst, row_number() OVER (
      |    PARTITION BY src
      |    ORDER BY CAST(score AS DOUBLE) DESC, CAST(dst AS BIGINT) ASC) AS rn
      |  FROM m) WHERE rn = 1""".stripMargin

  test("oracle: greedyMatch agrees with DuckDB window query") {
    Oracle.assertEquivalent(SimilarityMatrix.greedyMatch(m), argmaxSql, "m" -> m)
  }

  /** The confident cells of `m` as a local relation `(src, dst, score)`. */
  private def confidentCells(m: org.apache.spark.sql.DataFrame) = {
    val lm = LocalMatrix.of(m)
    SimilarityMatrix.confident(lm).toSeq.map(i => (lm.src(i), lm.dst(i), lm.score(i)))
      .toDF("src", "dst", "score")
  }

  test("confidentCells keeps only row-and-column maxima") {
    val got = cells(confidentCells(m)).toSet
    // (0,0)=0.9 is max of row 0 and col 0. (1,1)=0.8 is col-1 max but not
    // row-1 max (0.85 at (1,0)); (2,1)=0.7 is row-2 max but not col-1 max;
    // nothing else qualifies.
    assert(got == Set((0L, 0L, 0.9)))
    val m2 = denseMat(Seq(Seq(0.9, 0.1), Seq(0.2, 0.8)))
    assert(cells(confidentCells(m2)).toSet ==
      Set((0L, 0L, 0.9), (1L, 1L, 0.8)))
  }

  test("confidentCells keeps tied maxima (conflict filter handles them later)") {
    val tied = mat(Seq((0L, 0L, 0.5), (0L, 1L, 0.5), (1L, 0L, 0.1), (1L, 1L, 0.2)))
    val got = cells(confidentCells(tied)).toSet
    assert(got == Set((0L, 0L, 0.5), (0L, 1L, 0.5)))
  }

  private val confidentSql =
    """SELECT m.src AS src, m.dst AS dst, CAST(m.score AS DOUBLE) AS score
      |FROM m
      |JOIN (SELECT src, max(CAST(score AS DOUBLE)) AS rmax FROM m GROUP BY src) r
      |  ON m.src = r.src AND CAST(m.score AS DOUBLE) = r.rmax
      |JOIN (SELECT dst, max(CAST(score AS DOUBLE)) AS cmax FROM m GROUP BY dst) c
      |  ON m.dst = c.dst AND CAST(m.score AS DOUBLE) = c.cmax""".stripMargin

  test("oracle: confidentCells agrees with DuckDB") {
    Oracle.assertEquivalent(
      confidentCells(m)
        .select(col("src"), col("dst"), col("score")),
      confidentSql, "m" -> m)
  }

  test("oracle: greedyMatch and confidentCells agree with DuckDB on rectangular tied matrices") {
    // Scores from three values, so rows and columns tie; target ids are
    // spaced and offset so that no id doubles as an index.
    val rnd = new scala.util.Random(3)
    for ((rows, cols) <- Seq((2, 5), (5, 2), (3, 7), (7, 3))) {
      val r = mat(for (i <- 0 until rows; j <- 0 until cols)
        yield (i.toLong, 100L + 3 * j, Seq(0.2, 0.5, 0.9)(rnd.nextInt(3))))
      Oracle.assertEquivalent(SimilarityMatrix.greedyMatch(r), argmaxSql, "m" -> r)
      Oracle.assertEquivalent(confidentCells(r), confidentSql, "m" -> r)
      assert(matchMap(SimilarityMatrix.greedyMatch(r)).size == rows)
    }
  }

  test("-0.0 scores equal 0.0, and NaN scores are rejected") {
    // Spark compares -0.0 and 0.0 as equal: both rows tie at their maximum.
    val signed = mat(Seq((0L, 5L, 0.0), (0L, 2L, -0.0), (1L, 5L, -0.0), (1L, 2L, -0.5)))
    assert(matchMap(SimilarityMatrix.greedyMatch(signed)) == Map(0L -> 2L, 1L -> 5L))
    val conf = cells(confidentCells(signed))
    assert(conf.map { case (s, d, _) => (s, d) }.toSet == Set((0L, 2L), (0L, 5L), (1L, 5L)))
    assert(conf.forall { case (_, _, v) => v == 0.0 })
    val nan = mat(Seq((0L, 0L, 0.5), (0L, 1L, Double.NaN)))
    intercept[IllegalArgumentException](SimilarityMatrix.greedyMatch(nan))
    intercept[IllegalArgumentException](confidentCells(nan))
    intercept[IllegalArgumentException](SimilarityMatrix.weightedSum(spark, Seq(nan -> 1.0)))
  }

  test("weightedSum combines matrices cell-wise") {
    val a = mat(Seq((0L, 0L, 1.0), (0L, 1L, 0.5)))
    val b = mat(Seq((0L, 0L, 0.2), (0L, 1L, 1.0)))
    val got = cells(SimilarityMatrix.weightedSum(spark, Seq(a -> 0.25, b -> 0.75)))
      .map { case (s, d, v) => (s, d, math.rint(v * 1e9) / 1e9) }.toSet
    assert(got == Set((0L, 0L, 0.4), (0L, 1L, 0.875)))
  }

  test("weightedSum adds 0.0 + w1·a + w2·b + … in term order") {
    // With unit weights, (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in
    // their last bit, and a sum of -0.0 terms is 0.0.
    def grid(v00: Double, v05: Double, v10: Double, v15: Double) =
      mat(Seq((0L, 0L, v00), (0L, 5L, v05), (1L, 0L, v10), (1L, 5L, v15)))
    val a = grid(0.1, 0.7, -0.0, 0.3)
    val b = grid(0.2, 0.0, -0.0, 0.4)
    val c = grid(0.3, -0.0, -0.0, 0.0)
    val got = cells(SimilarityMatrix.weightedSum(spark, Seq(a -> 1.0, b -> 1.0, c -> 1.0)))
      .map { case (s, d, v) => (s, d) -> java.lang.Double.doubleToRawLongBits(v) }.toMap
    val want = Map((0L, 0L) -> (0.0 + 0.1 + 0.2 + 0.3), (0L, 5L) -> 0.7,
      (1L, 0L) -> 0.0, (1L, 5L) -> (0.3 + 0.4))
    assert(got == want.map { case (k, v) => k -> java.lang.Double.doubleToRawLongBits(v) })
    // A raw -0.0 score in a driver term adds as 0.0 too.
    val neg = new LocalMatrix(Array(0L), Array(0L), Array(-0.0))
    assert(java.lang.Double.doubleToRawLongBits(SimilarityMatrix.weightedSum(Seq(neg -> 1.0)).score(0)) == 0L)
  }

  test("weightedSum rejects terms over different grids") {
    val a = LocalMatrix.grid(Array(0L), Array(0L, 1L), 0.5)
    val otherDsts = LocalMatrix.grid(Array(0L), Array(0L, 2L), 0.5)
    val otherSrcs = LocalMatrix.grid(Array(1L), Array(0L, 1L), 0.5)
    intercept[IllegalArgumentException](SimilarityMatrix.weightedSum(Seq(a -> 1.0, otherDsts -> 1.0)))
    intercept[IllegalArgumentException](SimilarityMatrix.weightedSum(Seq(a -> 1.0, otherSrcs -> 1.0)))
    intercept[IllegalArgumentException](SimilarityMatrix.weightedSum(spark,
      Seq(mat(Seq((0L, 0L, 0.5), (0L, 1L, 0.5))) -> 1.0, mat(Seq((0L, 0L, 0.5), (0L, 2L, 0.5))) -> 1.0)))
  }

  test("LocalMatrix.of rejects a matrix that lacks a cell of its grid") {
    // Ids {0, 1} x {0, 1}: cell (1, 1) is missing.
    val holed = mat(Seq((0L, 0L, 0.5), (0L, 1L, 0.5), (1L, 0L, 0.5)))
    val e = intercept[IllegalArgumentException](LocalMatrix.of(holed))
    assert(e.getMessage.contains("(1, 1)"), e.getMessage)
    intercept[IllegalArgumentException](LocalMatrix.of(mat(Seq((0L, 0L, 0.5), (0L, 0L, 0.5)))))
  }

  test("a LocalMatrix holds one score per cell of its grid") {
    intercept[IllegalArgumentException](new LocalMatrix(Array(0L, 1L), Array(5L), Array(0.5)))
    intercept[IllegalArgumentException](new LocalMatrix(Array(0L), Array(5L), Array(0.5, 0.5)))
    assert(new LocalMatrix(Array(0L, 1L), Array(5L), Array(0.5, 0.5)).rows == 2)
  }

  test("oracle: weightedSum agrees with DuckDB full-outer sum") {
    val a = denseMat(Seq(Seq(0.1, 0.9), Seq(0.4, 0.6)))
    val b = denseMat(Seq(Seq(0.7, 0.2), Seq(0.3, 0.8)))
    Oracle.assertEquivalent(
      SimilarityMatrix.weightedSum(spark, Seq(a -> 0.3, b -> 0.7)),
      """SELECT a.src AS src, a.dst AS dst,
        |       0.3 * CAST(a.score AS DOUBLE) + 0.7 * CAST(b.score AS DOUBLE) AS score
        |FROM a JOIN b ON a.src = b.src AND a.dst = b.dst""".stripMargin,
      "a" -> a, "b" -> b)
  }

  test("cosineCross computes pairwise cosine over the domain") {
    val e1 = Seq((0L, Seq(1.0, 0.0)), (1L, Seq(0.0, 1.0))).toDF("id", "vec")
    val e2 = Seq((0L, Seq(1.0, 0.0)), (1L, Seq(1.0, 1.0))).toDF("id", "vec")
    val domain = Seq((0L, 0L), (0L, 1L), (1L, 0L), (1L, 1L))
      .toDF("src", "dst")
    val got = cells(SimilarityMatrix.cosineCross(e1, e2, domain))
      .map { case (s, d, v) => (s, d, math.rint(v * 1e6) / 1e6) }.toSet
    val r2 = math.rint(1e6 / math.sqrt(2.0)) / 1e6
    assert(got == Set((0L, 0L, 1.0), (0L, 1L, r2), (1L, 0L, 0.0), (1L, 1L, r2)))
  }

  test("cosineCross scores missing embeddings as zero") {
    val e1 = Seq((0L, Seq(1.0, 0.0))).toDF("id", "vec")
    val e2 = Seq((5L, Seq(1.0, 0.0))).toDF("id", "vec")
    val domain = Seq(0L, 1L).toDF("src").crossJoin(Seq(5L, 6L).toDF("dst"))
    val got = cells(SimilarityMatrix.cosineCross(e1, e2, domain)).toSet
    assert(got == Set((0L, 5L, 1.0), (0L, 6L, 0.0), (1L, 5L, 0.0), (1L, 6L, 0.0)))
  }

  test("oracle: cosineCross agrees with DuckDB over exploded vectors") {
    def exploded(e: org.apache.spark.sql.DataFrame) =
      e.select(col("id"), posexplode(col("vec")).as(Seq("dim", "v")))
    // A cell whose source or target has no vector, or a zero one, scores 0.
    val sql =
      """WITH dots AS (
        |  SELECT a.id AS src, b.id AS dst,
        |         sum(CAST(a.v AS DOUBLE) * CAST(b.v AS DOUBLE)) AS d,
        |         sqrt(sum(CAST(a.v AS DOUBLE) * CAST(a.v AS DOUBLE))) AS na,
        |         sqrt(sum(CAST(b.v AS DOUBLE) * CAST(b.v AS DOUBLE))) AS nb
        |  FROM e1 a JOIN e2 b ON a.dim = b.dim
        |  GROUP BY a.id, b.id)
        |SELECT m.src AS src, m.dst AS dst,
        |       CASE WHEN na > 0 AND nb > 0 THEN d / (na * nb) ELSE 0.0 END AS score
        |FROM dom m LEFT JOIN dots ON m.src = dots.src AND m.dst = dots.dst""".stripMargin
    val square = (
      Seq((0L, Seq(0.5, 0.5, 0.1)), (1L, Seq(0.9, 0.1, 0.3))).toDF("id", "vec"),
      Seq((0L, Seq(0.2, 0.8, 0.4)), (1L, Seq(0.3, 0.3, 0.3))).toDF("id", "vec"),
      Seq((0L, 0L), (0L, 1L), (1L, 0L), (1L, 1L)).toDF("src", "dst"))
    // #src != #dst: source 2 has no vector, target 7 has none and target 9
    // a zero one.
    val rectangular = (
      Seq((0L, Seq(0.5, 0.5, 0.1)), (1L, Seq(-0.9, 0.1, 0.3)), (3L, Seq(0.0, 0.2, 0.0))).toDF("id", "vec"),
      Seq((5L, Seq(0.2, 0.8, 0.4)), (6L, Seq(0.3, -0.3, 0.3)), (9L, Seq(0.0, 0.0, 0.0))).toDF("id", "vec"),
      Seq(0L, 1L, 2L).toDF("src").crossJoin(Seq(5L, 6L, 7L, 9L).toDF("dst")))
    for ((e1, e2, domain) <- Seq(square, rectangular))
      Oracle.assertEquivalent(SimilarityMatrix.cosineCross(e1, e2, domain), sql,
        "e1" -> exploded(e1), "e2" -> exploded(e2), "dom" -> domain)
    assert(cells(SimilarityMatrix.cosineCross(rectangular._1, rectangular._2, rectangular._3))
      .count { case (s, d, v) => v == 0.0 && (s == 2L || d == 7L || d == 9L) } == 8)
  }

  test("testDomain is the full cross product of test pairs") {
    val test = Seq((0L, 0L), (1L, 1L), (2L, 2L)).toDF("src", "dst")
    assert(SimilarityMatrix.testDomain(test).count() == 9)
    assert(SimilarityMatrix.testDomain(test).distinct().count() == 9)
  }
}
