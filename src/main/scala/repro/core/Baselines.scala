package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import repro.kg.EaBenchmark
import repro.text.HashVectors

/** Proxy baselines spanning the classes of the paper's 11 competitors
  * (DESIGN.md §2). Each produces a *similarity matrix*; decisions are
  * made independently (row-argmax) as in all competitor systems.
  *
  * | proxy            | paper class                         | mechanism |
  * |------------------|-------------------------------------|-----------|
  * | structShallow    | structure-only, 1-hop               | direct seed-neighbour fingerprint |
  * | structStandard   | structure-only, 2-hop (GCN-class)   | 2-hop propagation: CEAFF's own `M^s` |
  * | structDeep       | structure-only, long-range (RSNs/NAEA-class) | 3-hop propagation |
  * | structBootstrap  | IPTransE, BootEA (iterative seeds)  | confident matches appended to seeds, re-propagate |
  * | repFusion        | RDGCN, GM-Align, MultiKE            | one unified structure+name vector per entity — representation-level fusion |
  *
  * Within the structure-only group the depth/accuracy relationship is
  * substrate-dependent: on dense KGs the 1-hop fingerprint is already
  * sharp, while on sparse (SRPRS-like) KGs deeper propagation pays —
  * the analogue of the paper's observation that RSNs overtakes other
  * structure-only methods exactly on SRPRS.
  *
  * Every baseline scores on the benchmark's [[FeatureSet]]:
  * `structStandard` is its `ms` (a GCN-Align-class 2-hop propagation is
  * exactly CEAFF's `M^s`), `structBootstrap` starts from it, and
  * `repFusion` concatenates its embeddings. Only `structShallow`,
  * `structDeep` and `structBootstrap` propagate again, since their depth
  * or anchors differ.
  */
object Baselines {

  /** The ordered baseline roster used by the result tables. */
  val names: Seq[String] =
    Seq("structShallow", "structStandard", "structDeep", "structBootstrap", "repFusion")

  /** Bootstrapped structure-only matrix: cells of `M^s` maximal in both row
    * and column (mutual best matches — BootEA's one-to-one constrained
    * strategy) are promoted to anchor pairs and propagation is re-run.
    */
  private def bootstrapMatrix(spark: SparkSession, b: EaBenchmark, fs: FeatureSet): DataFrame = {
    import spark.implicits._
    // Only unambiguous mutual-best pairs may become anchors: positive
    // score, and a source/target that appears in exactly one confident
    // cell (zero rows/columns on sparse KGs otherwise tie pairwise and
    // would flood the seed set with conflicting k² pairs). There are
    // about as many confident cells as source entities, so the
    // uniqueness filter runs on the driver.
    val cand = SimilarityMatrix.confidentCells(fs.ms).filter(col("score") > 0)
      .select(col("src"), col("dst")).as[(Long, Long)].collect()
    val perSrc = cand.groupMapReduce(_._1)(_ => 1)(_ + _)
    val perDst = cand.groupMapReduce(_._2)(_ => 1)(_ + _)
    val extra = cand.filter { case (s, d) => perSrc(s) == 1 && perDst(d) == 1 }.distinct
    StructuralFeature.matrix(spark, b, extraPairs = Some(extra.toSeq.toDF("src", "dst")))
  }

  /** Representation-level fusion proxy: each entity gets ONE unified
    * vector — the concatenation of its L2-normalised structural and name
    * embeddings — and all decisions are made on that single vector
    * (RDGCN/GM-Align/MultiKE-style). This is the paper's critique target:
    * the feature mix is frozen into the representation (implicitly
    * equal-weighted, norm-coupled, stringless), so feature-specific
    * detail cannot be re-weighted at decision time. The matrix is a plan
    * over `fs`'s embedding caches; it caches nothing of its own.
    */
  private def repFusionMatrix(b: EaBenchmark, fs: FeatureSet): DataFrame = {
    val concatNorm = udf { (a: Seq[Double], bb: Seq[Double]) =>
      (HashVectors.normalize(a.toArray) ++ HashVectors.normalize(bb.toArray)).toSeq
    }
    def unified(se: DataFrame, ne: DataFrame): DataFrame =
      se.withColumnRenamed("vec", "sv")
        .join(ne.withColumnRenamed("vec", "nv"), Seq("id"))
        .select(col("id"), concatNorm(col("sv"), col("nv")).as("vec"))
    SimilarityMatrix.cosineCross(unified(fs.structEmb1, fs.semEmb1),
      unified(fs.structEmb2, fs.semEmb2), SimilarityMatrix.testDomain(b.test))
  }

  /** Lend the similarity matrix of a named baseline, scored on `fs`, to
    * `use`. A baseline releases only the caches it made; `fs` and its
    * caches belong to the caller.
    */
  def withMatrix[A](spark: SparkSession, b: EaBenchmark, fs: FeatureSet, name: String)
                   (use: DataFrame => A): A = {
    def owned(m: DataFrame): A = try use(m) finally m.unpersist()
    name match {
      case "structShallow"   => owned(StructuralFeature.matrix(spark, b, layers = 1))
      case "structStandard"  => use(fs.ms)
      case "structDeep"      => owned(StructuralFeature.matrix(spark, b, layers = 3))
      case "structBootstrap" => owned(bootstrapMatrix(spark, b, fs))
      case "repFusion"       => use(repFusionMatrix(b, fs))
      case other => throw new IllegalArgumentException(s"unknown baseline '$other'")
    }
  }

  /** Independent-decision accuracy of a named baseline. */
  def accuracy(spark: SparkSession, b: EaBenchmark, fs: FeatureSet, name: String): Double =
    withMatrix(spark, b, fs, name)(m =>
      Evaluation.accuracy(SimilarityMatrix.greedyMatch(m), b.test))
}
