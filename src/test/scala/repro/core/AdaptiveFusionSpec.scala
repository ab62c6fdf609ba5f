package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import repro.{Fixtures, Oracle, SparkSpec}

class AdaptiveFusionSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  // Figure-3 style instance (see DESIGN.md): three features whose
  // confident correspondences exercise every rule of §V.
  //   Ms -> {(1,1)=0.9, (2,2)=0.8}
  //   Mn -> {(0,0)=0.99, (1,1)=0.7}
  //   Ml -> {(0,0)=0.8, (1,2)=0.75}
  // u1=0: (0,0) found by Mn+Ml, n=2; Mn's 0.99 > θ1 so its weight is θ2.
  // u2=1: conflicting candidates (1,1) vs (1,2) — all dropped.
  // u3=2: (2,2) only in Ms, weight 1.
  private def ms = denseMat(Seq(
    Seq(0.1, 0.2, 0.3),
    Seq(0.2, 0.9, 0.1),
    Seq(0.3, 0.1, 0.8)))
  private def mn = denseMat(Seq(
    Seq(0.99, 0.1, 0.2),
    Seq(0.1, 0.7, 0.3),
    Seq(0.2, 0.3, 0.1)))
  private def ml = denseMat(Seq(
    Seq(0.8, 0.35, 0.2),
    Seq(0.1, 0.2, 0.75),
    Seq(0.2, 0.3, 0.1)))
  private def feats = Seq("ms" -> ms, "mn" -> mn, "ml" -> ml)

  // k random 8×8 features with scores from three values, one above θ1,
  // so row and column maxima tie. The diagonal leans high, so the
  // features partly agree; some rows are all zero.
  private def randomFeats(k: Int, seed: Int): Seq[(String, DataFrame)] = {
    val rnd = new scala.util.Random(seed)
    val (lo, mid, hi) = (0.3, 0.6, 0.99)
    Seq.tabulate(k) { f =>
      s"f$f" -> denseMat(Seq.tabulate(8) { i =>
        val zero = rnd.nextInt(6) == 0
        Seq.tabulate(8) { j =>
          if (zero) 0.0
          else if (i == j && rnd.nextInt(3) > 0) (if (rnd.nextBoolean()) mid else hi)
          else if (rnd.nextInt(3) == 0) (if (rnd.nextBoolean()) lo else mid)
          else lo
        }
      })
    }
  }

  // A feature whose rows tie across a whole plateau, as ZH-EN's string
  // matrix does: every plateau cell is confident and its sources conflict.
  // The other feature partly agrees on the diagonal outside the plateau.
  private def plateauFeats: Seq[(String, DataFrame)] = Seq(
    "plateau" -> denseMat(Seq.tabulate(8, 8) { (i, j) =>
      if (i < 4 && j < 4) 0.5 else if (i == j) 0.7 else 0.1
    }),
    randomFeats(1, seed = 9).head)

  test("Figure 3: adaptive weights follow the correspondence rules") {
    val w = AdaptiveFusion.adaptiveWeights(spark, feats)
    // scores: ms = 1 (weight 1 for (2,2)); mn = θ2 = 0.1; ml = 1/2 = 0.5
    // total 1.6 -> weights 0.625 / 0.0625 / 0.3125
    assert(math.abs(w("ms") - 0.625) < 1e-9, w.toString)
    assert(math.abs(w("mn") - 0.0625) < 1e-9, w.toString)
    assert(math.abs(w("ml") - 0.3125) < 1e-9, w.toString)
  }

  test("weights sum to one") {
    for (fs <- Seq(feats, randomFeats(3, seed = 2))) {
      val w = AdaptiveFusion.adaptiveWeights(spark, fs)
      assert(math.abs(w.values.sum - 1.0) < 1e-9)
      // The same bits whatever the partitioning of the inputs.
      for (p <- Seq(1, 8)) {
        val wp = AdaptiveFusion.adaptiveWeights(spark, fs.map { case (n, m) => n -> m.repartition(p) })
        assert(wp == w, s"$p partitions")
      }
    }
  }

  test("oracle: adaptiveWeights agrees with DuckDB on random tied instances") {
    val (th1, th2) = (AdaptiveFusion.DefaultTheta1, AdaptiveFusion.DefaultTheta2)
    val instances = (for (k <- Seq(2, 3); seed <- 1 to 6) yield randomFeats(k, seed)) :+ plateauFeats
    for (fs <- instances) {
      val k = fs.size
      val w = AdaptiveFusion.adaptiveWeights(spark, fs)
      Oracle.assertEquivalent(
        w.toSeq.toDF("feature", "w"),
        s"""WITH m AS (
           |  SELECT feature, CAST(src AS BIGINT) AS src, CAST(dst AS BIGINT) AS dst,
           |         CAST(score AS DOUBLE) AS score FROM cells),
           |conf AS (
           |  SELECT * FROM m
           |  WHERE score > 0
           |    AND score = (SELECT max(r.score) FROM m r WHERE r.feature = m.feature AND r.src = m.src)
           |    AND score = (SELECT max(c.score) FROM m c WHERE c.feature = m.feature AND c.dst = m.dst)),
           |unconflicted AS (
           |  SELECT * FROM conf
           |  WHERE src IN (SELECT src FROM conf GROUP BY src HAVING count(DISTINCT dst) = 1)),
           |pairs AS (
           |  SELECT src, dst, count(DISTINCT feature) AS n FROM unconflicted GROUP BY src, dst),
           |sums AS (
           |  SELECT u.feature, sum(CASE WHEN u.score > $th1 THEN CAST($th2 AS DOUBLE)
           |                             ELSE 1.0 / CAST(p.n AS DOUBLE) END) AS ws
           |  FROM unconflicted u JOIN pairs p ON u.src = p.src AND u.dst = p.dst
           |  WHERE p.n < $k GROUP BY u.feature),
           |total AS (SELECT sum(ws) AS t FROM sums)
           |SELECT f.feature AS feature,
           |       CASE WHEN total.t > 0 THEN coalesce(sums.ws, 0) / total.t
           |            ELSE 1.0 / $k END AS w
           |FROM (SELECT DISTINCT feature FROM m) f CROSS JOIN total
           |LEFT JOIN sums ON sums.feature = f.feature""".stripMargin,
        "cells" -> fs.map { case (n, m) => m.withColumn("feature", lit(n)) }.reduce(_ union _))
    }
  }

  test("disabling the theta cap restores the 1/n weight for high scores") {
    val w = AdaptiveFusion.adaptiveWeights(spark, feats, theta1 = Double.PositiveInfinity)
    // mn's (0,0) now weighs 1/2: scores 1 / 0.5 / 0.5 -> 0.5 / 0.25 / 0.25
    assert(math.abs(w("ms") - 0.5) < 1e-9, w.toString)
    assert(math.abs(w("mn") - 0.25) < 1e-9, w.toString)
    assert(math.abs(w("ml") - 0.25) < 1e-9, w.toString)
  }

  test("theta parameters are honoured") {
    // With θ1 = 0.7 both mn candidates are capped... (0,0)=0.99>0.7 -> θ2,
    // ml's (0,0)=0.8>0.7 -> θ2, ml's (1,2)=0.75>0.7 -> dropped by conflict
    // anyway; ms (2,2)=0.8 > 0.7 -> θ2.
    val w = AdaptiveFusion.adaptiveWeights(spark, feats, theta1 = 0.7, theta2 = 0.2)
    // scores: ms = 0.2, mn = 0.2, ml = 0.2 -> equal weights
    assert(w.values.forall(v => math.abs(v - 1.0 / 3) < 1e-9), w.toString)
  }

  test("a correspondence shared by all features is filtered out") {
    // Identical diagonal-dominant matrices: every confident cell is shared
    // by all 3 features -> everything filtered -> equal-weight fallback.
    val d = denseMat(Seq(Seq(0.9, 0.1), Seq(0.1, 0.8)))
    val w = AdaptiveFusion.adaptiveWeights(spark, Seq("a" -> d, "b" -> d, "c" -> d))
    assert(w.values.forall(v => math.abs(v - 1.0 / 3) < 1e-9), w.toString)
  }

  test("conflicting candidates for one source are dropped for all features") {
    // a's only confident cell is (0,0): (0,1)=0.4 is col-1 max but not
    // row-0 max, and (1,1)=0.3 is row-1 max but not col-1 max.
    val a = denseMat(Seq(Seq(0.9, 0.4), Seq(0.2, 0.3)))
    // b: (0,1)=0.8 confident (row max, col max); (1,0)=0.6 confident.
    val b = denseMat(Seq(Seq(0.1, 0.8), Seq(0.6, 0.2)))
    val w = AdaptiveFusion.adaptiveWeights(spark, Seq("a" -> a, "b" -> b))
    // source 0 conflicts ((0,0) from a vs (0,1) from b) -> both dropped;
    // b keeps (1,0) with weight 1 -> b gets all the weight.
    assert(math.abs(w("a") - 0.0) < 1e-9, w.toString)
    assert(math.abs(w("b") - 1.0) < 1e-9, w.toString)
  }

  test("single feature trivially gets weight 1") {
    assert(AdaptiveFusion.adaptiveWeights(spark, Seq("only" -> ms)) == Map("only" -> 1.0))
  }

  test("fuse produces the weighted sum with adaptive weights") {
    val (w, fused) = AdaptiveFusion.fuseOf(feats.map { case (n, m) => n -> LocalMatrix.of(m) },
      AdaptiveFusion.DefaultTheta1, AdaptiveFusion.DefaultTheta2)
    val got = cells(fused.toDF(spark)).map { case (s, d, v) => (s, d) -> v }.toMap
    val msC = cells(ms).map { case (s, d, v) => (s, d) -> v }.toMap
    val mnC = cells(mn).map { case (s, d, v) => (s, d) -> v }.toMap
    val mlC = cells(ml).map { case (s, d, v) => (s, d) -> v }.toMap
    got.foreach { case (k, v) =>
      val expect = w("ms") * msC(k) + w("mn") * mnC(k) + w("ml") * mlC(k)
      assert(math.abs(v - expect) < 1e-9, s"cell $k")
    }
  }

  test("fuseEqual assigns 1/k everywhere") {
    val r = AdaptiveFusion.fuseEqual(spark, feats)
    assert(r.weights.values.forall(v => math.abs(v - 1.0 / 3) < 1e-9))
  }

  test("fuseFixed normalises supplied weights") {
    val r = AdaptiveFusion.fuseFixed(spark, Seq("ms" -> ms, "mn" -> mn),
      Map("ms" -> 3.0, "mn" -> 1.0))
    assert(math.abs(r.weights("ms") - 0.75) < 1e-9)
    assert(math.abs(r.weights("mn") - 0.25) < 1e-9)
  }

  test("fuseFixed rejects non-positive total weight") {
    intercept[IllegalArgumentException] {
      AdaptiveFusion.fuseFixed(spark, Seq("ms" -> ms), Map("ms" -> 0.0))
    }
  }

  test("empty feature list is rejected") {
    intercept[IllegalArgumentException] {
      AdaptiveFusion.fuseOf(Seq.empty, AdaptiveFusion.DefaultTheta1, AdaptiveFusion.DefaultTheta2)
    }
  }

  test("a clearly better feature earns a larger adaptive weight on realistic matrices") {
    // good: strong diagonal — six unique confident cells; noise: strictly
    // decreasing scores, whose only confident cell (0,0) coincides with
    // good's and is removed by the shared-by-all filter. good keeps
    // (1,1)..(5,5) and takes all the weight.
    val n = 6
    val good = denseMat(Seq.tabulate(n, n)((i, j) => if (i == j) 0.9 else 0.1))
    val noise = denseMat(Seq.tabulate(n, n)((i, j) => 0.5 - (i * n + j) * 0.001))
    val w = AdaptiveFusion.adaptiveWeights(spark, Seq("good" -> good, "noise" -> noise))
    assert(math.abs(w("good") - 1.0) < 1e-9, w.toString)
    assert(math.abs(w("noise") - 0.0) < 1e-9, w.toString)
  }
}
