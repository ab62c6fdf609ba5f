package repro.core

import org.apache.spark.sql.SparkSession
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

  /** The labelled training pairs `(src, dst, label)`, built on the driver
    * from `b`'s seed pairs, in their order: each positive is followed by its
    * negatives. Negative targets are drawn deterministically from the
    * seed-target pool.
    */
  def trainingDomain(b: EaBenchmark, seed: Long = 99): Seq[(Long, Long, Double)] = {
    val pairs = b.seedPairs
    val dstPool = pairs.map(_._2).sorted.toArray
    require(dstPool.length >= 2, "need at least two seed pairs for negatives")
    pairs.flatMap { case (u, v) =>
      val negs = (0 until NegativesPerPositive).flatMap { k =>
        val cand = dstPool((NameModel.frac(s"lrneg:$u:$k:$seed") * dstPool.length).toInt
          .min(dstPool.length - 1))
        if (cand == v) None else Some((u, cand, 0.0))
      }
      (u, v, 1.0) +: negs
    }
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
    val domain = trainingDomain(b, seed)
    val rows = Ceaff.scoresOn(b, fs, domain.map { case (s, d, _) => (s, d) }, featureNames)
      .zip(domain.map(_._3)).toArray
    val w = fitLogistic(rows).map(math.max(_, 0.0))
    val total = w.sum
    if (total <= 0) featureNames.map(_ -> 1.0 / featureNames.size).toMap
    else featureNames.zip(w.map(_ / total)).toMap
  }
}
