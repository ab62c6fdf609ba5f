package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kg.{BenchmarkGen, EaBenchmark}

/** Proxy baselines spanning the classes of the paper's 11 competitors
  * (DESIGN.md §2). Each produces a *similarity matrix*; decisions are
  * made independently (row-argmax) as in all competitor systems.
  *
  * | proxy            | paper class                         | mechanism |
  * |------------------|-------------------------------------|-----------|
  * | structShallow    | structure-only, 1-hop               | direct seed-neighbour fingerprint |
  * | structStandard   | structure-only, 2-hop (GCN-class)   | 2-hop propagation |
  * | structDeep       | structure-only, long-range (RSNs/NAEA-class) | 3-hop propagation |
  * | structBootstrap  | IPTransE, BootEA (iterative seeds)  | confident matches appended to seeds, re-propagate |
  * | repFusion        | RDGCN, GM-Align, MultiKE            | one unified structure+name vector per entity — representation-level fusion |
  *
  * Within the structure-only group the depth/accuracy relationship is
  * substrate-dependent: on dense KGs the 1-hop fingerprint is already
  * sharp, while on sparse (SRPRS-like) KGs deeper propagation pays —
  * the analogue of the paper's observation that RSNs overtakes other
  * structure-only methods exactly on SRPRS.
  */
object Baselines {

  /** The ordered baseline roster used by the result tables. */
  val names: Seq[String] =
    Seq("structShallow", "structStandard", "structDeep", "structBootstrap", "repFusion")

  /** Structure-only similarity matrix with the given propagation depth. */
  def structMatrix(spark: SparkSession, b: EaBenchmark, layers: Int,
                   dim: Int = BenchmarkGen.Dim): DataFrame =
    StructuralFeature.matrix(spark, b, dim = dim, layers = layers)

  /** Bootstrapped structure-only matrix: after each round, cells maximal
    * in both row and column (mutual best matches — BootEA's one-to-one
    * constrained strategy) are promoted to anchor pairs and propagation
    * is re-run.
    */
  def bootstrapMatrix(spark: SparkSession, b: EaBenchmark, rounds: Int = 2,
                      dim: Int = BenchmarkGen.Dim): DataFrame = {
    import spark.implicits._
    require(rounds >= 1, "need at least one bootstrap round")
    var extra = Seq.empty[(Long, Long)]
    var m = StructuralFeature.matrix(spark, b, dim = dim)
    for (_ <- 2 to rounds) {
      // Only unambiguous mutual-best pairs may become anchors: positive
      // score, and a source/target that appears in exactly one confident
      // cell (zero rows/columns on sparse KGs otherwise tie pairwise and
      // would flood the seed set with conflicting k² pairs). There are
      // about as many confident cells as source entities, so the
      // uniqueness filter runs on the driver.
      val cand = SimilarityMatrix.confidentCells(m).filter(col("score") > 0)
        .select(col("src"), col("dst")).as[(Long, Long)].collect()
      val perSrc = cand.groupMapReduce(_._1)(_ => 1)(_ + _)
      val perDst = cand.groupMapReduce(_._2)(_ => 1)(_ + _)
      extra = (extra ++ cand.filter { case (s, d) => perSrc(s) == 1 && perDst(d) == 1 }).distinct
      val next = StructuralFeature.matrix(spark, b, dim = dim,
        extraPairs = Some(extra.toDF("src", "dst")))
      m.unpersist()
      m = next
    }
    m
  }

  /** Representation-level fusion proxy: each entity gets ONE unified
    * vector — the concatenation of its L2-normalised structural and name
    * embeddings — and all decisions are made on that single vector
    * (RDGCN/GM-Align/MultiKE-style). This is the paper's critique target:
    * the feature mix is frozen into the representation (implicitly
    * equal-weighted, norm-coupled, stringless), so feature-specific
    * detail cannot be re-weighted at decision time.
    */
  def repFusionMatrix(spark: SparkSession, b: EaBenchmark,
                      dim: Int = BenchmarkGen.Dim): DataFrame = {
    val concatNorm = org.apache.spark.sql.functions.udf {
      (a: Seq[Double], bb: Seq[Double]) =>
        val an = repro.text.HashVectors.normalize(a.toArray)
        val bn = repro.text.HashVectors.normalize(bb.toArray)
        (an ++ bn).toSeq
    }
    val (a1, a2) = StructuralFeature.anchors(spark, b.seeds, dim)
    val se1 = StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")),
      a1, side = 1, dim = dim)
    val se2 = StructuralFeature.embed(spark, b.triples2, b.names2.select(col("id")),
      a2, side = 2, dim = dim)
    def unified(se: DataFrame, names: DataFrame, dict: DataFrame): DataFrame =
      se.withColumnRenamed("vec", "sv")
        .join(SemanticFeature.nameEmbeddings(spark, names, dict, dim)
          .withColumnRenamed("vec", "nv"), Seq("id"))
        .select(col("id"), concatNorm(col("sv"), col("nv")).as("vec"))
    val m = SimilarityMatrix.cosineCross(unified(se1, b.names1, b.dict1),
      unified(se2, b.names2, b.dict2), SimilarityMatrix.testDomain(b.test)).cache()
    m.count()
    se1.unpersist(); se2.unpersist()
    m
  }

  /** Similarity matrix for a named proxy baseline, cached and
    * materialised; the caller owns that cache.
    */
  def matrix(spark: SparkSession, b: EaBenchmark, name: String): DataFrame = name match {
    case "structShallow"   => structMatrix(spark, b, layers = 1)
    case "structStandard"  => structMatrix(spark, b, layers = 2)
    case "structDeep"      => structMatrix(spark, b, layers = 3)
    case "structBootstrap" => bootstrapMatrix(spark, b)
    case "repFusion"       => repFusionMatrix(spark, b)
    case other => throw new IllegalArgumentException(s"unknown baseline '$other'")
  }

  /** Independent-decision accuracy of a named baseline. */
  def accuracy(spark: SparkSession, b: EaBenchmark, name: String): Double = {
    val m = matrix(spark, b, name)
    val acc = Evaluation.accuracy(SimilarityMatrix.greedyMatch(m), b.test)
    m.unpersist()
    acc
  }
}
