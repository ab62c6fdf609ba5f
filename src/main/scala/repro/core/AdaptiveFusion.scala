package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Result of one fusion step: per-feature adaptive weights (summing to 1)
  * and the fused similarity matrix `Σ w_k · M^k`.
  */
final case class FusionResult(weights: Map[String, Double], fused: DataFrame)

/** Adaptive feature fusion (paper §V).
  *
  * Outcome-level fusion over similarity matrices. Feature weights are
  * derived from *confident correspondences* — cells maximal in both
  * their row and column — after two filters:
  *  1. conflict filter: if different features propose different targets
  *     for the same source entity, all of that source's candidates drop;
  *  2. shared-by-all filter: a correspondence found by *every* feature
  *     characterises none of them and drops.
  * Each surviving correspondence weighs `1/n` (n = #features that found
  * it), except cells with score `> θ1` which weigh only `θ2` — this caps
  * runaway weight for a feature that is nearly perfect, so weaker
  * features keep contributing. A feature's weight is its share of the
  * total correspondence weight.
  */
object AdaptiveFusion {

  val DefaultTheta1 = 0.98
  val DefaultTheta2 = 0.1

  /** A confident cell of one feature. */
  private final case class Cell(feature: String, src: Long, dst: Long, score: Double)

  /** Compute adaptive weights for `features` (name → matrix), each
    * collected to the driver once ([[weightsOf]]).
    *
    * Set `theta1 = ∞` for the paper's "w/o θ1, θ2" ablation: then every
    * cell weighs `1/n`.
    *
    * Falls back to equal weights when no correspondence survives the
    * filters (e.g. degenerate tiny inputs), so fusion is always defined.
    */
  def adaptiveWeights(spark: SparkSession, features: Seq[(String, DataFrame)],
                      theta1: Double = DefaultTheta1,
                      theta2: Double = DefaultTheta2): Map[String, Double] =
    weightsOf(collect(features), theta1, theta2)

  /** [[adaptiveWeights]] on the driver. Each feature's confident cells
    * are found by one pass over its array; there are about one per source
    * entity, and the filters and sums below run over them.
    */
  def weightsOf(features: Seq[(String, LocalMatrix)], theta1: Double, theta2: Double): Map[String, Double] = {
    require(features.nonEmpty, "no features to fuse")
    val k = features.size
    if (k == 1) return Map(features.head._1 -> 1.0)

    // Zero-score cells are never evidence: on sparse KGs an all-zero row
    // and column tie pairwise and would flood the candidate set. Sorted so
    // the sums below add in one fixed order.
    val candidates = features.flatMap { case (name, m) =>
      SimilarityMatrix.confident(m).collect {
        case i if m.score(i) > 0 => Cell(name, m.src(i), m.dst(i), m.score(i))
      }
    }.sortBy(c => (c.feature, c.src, c.dst))

    // Conflict filter: a source entity for which the features (or a tie
    // within one feature) propose more than one distinct target loses all
    // its candidates.
    val targets = candidates.groupMapReduce(_.src)(c => Set(c.dst))(_ ++ _)
    val unconflicted = candidates.filter(c => targets(c.src).size == 1)

    // Shared-by-all filter + per-correspondence feature count n.
    val n = unconflicted.groupMapReduce(c => (c.src, c.dst))(c => Set(c.feature))(_ ++ _)
      .view.mapValues(_.size).toMap
    val sums = unconflicted.filter(c => n((c.src, c.dst)) < k)
      .groupMapReduce(_.feature) { c =>
        if (c.score > theta1) theta2 else 1.0 / n((c.src, c.dst))
      }(_ + _)

    val total = features.map { case (f, _) => sums.getOrElse(f, 0.0) }.sum
    if (total <= 0.0) features.map { case (f, _) => f -> 1.0 / k }.toMap
    else features.map { case (f, _) => f -> sums.getOrElse(f, 0.0) / total }.toMap
  }

  /** Adaptive fusion of `features` into one matrix, on the driver: the
    * adaptive weights and the weighted sum, from the same arrays.
    */
  def fuseOf(features: Seq[(String, LocalMatrix)], theta1: Double,
             theta2: Double): (Map[String, Double], LocalMatrix) = {
    val w = weightsOf(features, theta1, theta2)
    (w, SimilarityMatrix.weightedSum(features.map { case (name, m) => (m, w(name)) }))
  }

  /** Fixed equal-weight fusion — the paper's "w/o AFF" ablation. */
  def fuseEqual(spark: SparkSession, features: Seq[(String, DataFrame)]): FusionResult =
    fuseFixed(spark, features, features.map { case (n, _) => n -> 1.0 }.toMap)

  /** Fixed arbitrary-weight fusion (used by the LR baseline). Weights are
    * normalised to sum to 1.
    */
  def fuseFixed(spark: SparkSession, features: Seq[(String, DataFrame)],
                weights: Map[String, Double]): FusionResult = {
    val (w, fused) = fuseFixedOf(collect(features), weights)
    FusionResult(w, fused.toDF(spark))
  }

  /** [[fuseFixed]] on the driver: the normalised weights and the fused
    * matrix.
    */
  def fuseFixedOf(features: Seq[(String, LocalMatrix)],
                  weights: Map[String, Double]): (Map[String, Double], LocalMatrix) = {
    val total = features.map { case (n, _) => weights(n) }.sum
    require(total > 0, s"non-positive total weight: $weights")
    val norm = weights.map { case (n, w) => n -> w / total }
    (norm, SimilarityMatrix.weightedSum(features.map { case (n, m) => (m, norm(n)) }))
  }

  /** Each feature matrix collected to the driver once. */
  private def collect(features: Seq[(String, DataFrame)]): Seq[(String, LocalMatrix)] =
    features.map { case (name, m) => name -> LocalMatrix.of(m) }
}
