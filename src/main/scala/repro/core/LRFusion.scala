package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.kg.{EaBenchmark, NameModel}

/** Learning-based weighting baseline (paper §VII-E, "LR").
  *
  * EA is cast as binary classification over pairs: seed pairs are
  * positives; for each, 10 negatives are generated by replacing the
  * target with a random entity (the paper's protocol). A logistic
  * regression over the three feature scores is fit by full-batch gradient
  * descent on the driver (3 weights + bias — no external ML library
  * needed), and the positive-part-normalised coefficients become fixed
  * fusion weights.
  */
object LRFusion {

  val NegativesPerPositive = 10

  /** Build the labelled training domain `(src, dst, label)`. Negative
    * targets are drawn deterministically from the seed-target pool.
    */
  def trainingDomain(spark: SparkSession, b: EaBenchmark, seed: Long = 99): DataFrame = {
    import spark.implicits._
    val dstPool: Array[Long] = b.seeds.select(col("dst")).as[Long].collect().sorted
    require(dstPool.length >= 2, "need at least two seed pairs for negatives")
    val pairs = b.seeds.select(col("src"), col("dst")).as[(Long, Long)]
    pairs.flatMap { case (u, v) =>
      val negs = (0 until NegativesPerPositive).flatMap { k =>
        val cand = dstPool((NameModel.frac(s"lrneg:$u:$k:$seed") * dstPool.length).toInt
          .min(dstPool.length - 1))
        if (cand == v) None else Some((u, cand, 0.0))
      }
      (u, v, 1.0) +: negs
    }.toDF("src", "dst", "label")
  }

  /** Fit logistic regression on `(features..., label)` rows. Returns the
    * per-feature coefficients (bias discarded — it does not affect
    * ranking).
    */
  def fitLogistic(rows: Array[(Array[Double], Double)],
                  epochs: Int = 400, lr: Double = 0.5): Array[Double] = {
    require(rows.nonEmpty, "empty LR training set")
    val k = rows.head._1.length
    val w = new Array[Double](k)
    var b = 0.0
    val m = rows.length.toDouble
    for (_ <- 1 to epochs) {
      val gw = new Array[Double](k)
      var gb = 0.0
      rows.foreach { case (x, y) =>
        var z = b
        var i = 0
        while (i < k) { z += w(i) * x(i); i += 1 }
        val p = 1.0 / (1.0 + math.exp(-z))
        val d = p - y
        i = 0
        while (i < k) { gw(i) += d * x(i); i += 1 }
        gb += d
      }
      var i = 0
      while (i < k) { w(i) -= lr * gw(i) / m; i += 1 }
      b -= lr * gb / m
    }
    w
  }

  /** Learn fusion weights for the enabled features. Coefficients are
    * clamped at 0 and normalised to sum to 1 (equal fallback if the fit
    * degenerates to all-non-positive).
    */
  def learnWeights(spark: SparkSession, b: EaBenchmark, fs: FeatureSet,
                   featureNames: Seq[String] = Seq(Ceaff.Struct, Ceaff.Sem, Ceaff.Str),
                   seed: Long = 99): Map[String, Double] = {
    val domain = trainingDomain(spark, b, seed)
    val scored = Ceaff.scoresOn(spark, b, fs, domain)
    val rows = scored.select(
        featureNames.map(col) :+ col("label"): _*)
      .collect()
      .map { r =>
        (featureNames.indices.map(i => r.getDouble(i)).toArray,
         r.getDouble(featureNames.length))
      }
    val w = fitLogistic(rows).map(math.max(_, 0.0))
    val total = w.sum
    if (total <= 0) featureNames.map(_ -> 1.0 / featureNames.size).toMap
    else featureNames.zip(w.map(_ / total)).toMap
  }
}
