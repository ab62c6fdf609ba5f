package repro.core

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
  private def bootstrapMatrix(b: EaBenchmark, fs: FeatureSet): LocalMatrix = {
    // Only unambiguous mutual-best pairs may become anchors: positive
    // score, and a source/target that appears in exactly one confident
    // cell (zero rows/columns on sparse KGs otherwise tie pairwise and
    // would flood the seed set with conflicting k² pairs).
    val ms = fs.local(Ceaff.Struct)
    val cand = SimilarityMatrix.confident(ms).filter(ms.score(_) > 0).map(i => (ms.src(i), ms.dst(i)))
    val perSrc = cand.groupMapReduce(_._1)(_ => 1)(_ + _)
    val perDst = cand.groupMapReduce(_._2)(_ => 1)(_ + _)
    val extra = cand.filter { case (s, d) => perSrc(s) == 1 && perDst(d) == 1 }.distinct
    StructuralFeature.matrix(b, extraPairs = extra)
  }

  /** Representation-level fusion proxy: each entity gets ONE unified
    * vector — the concatenation of its L2-normalised structural and name
    * embeddings — and all decisions are made on that single vector
    * (RDGCN/GM-Align/MultiKE-style). This is the paper's critique target:
    * the feature mix is frozen into the representation (implicitly
    * equal-weighted, norm-coupled, stringless), so feature-specific
    * detail cannot be re-weighted at decision time. The unified vectors
    * are built from `fs`'s embeddings and scored over `fs`'s test domain.
    */
  private def repFusionMatrix(fs: FeatureSet): LocalMatrix = {
    def unified(se: EntityTables.Vectors, ne: EntityTables.Vectors): EntityTables.Vectors =
      se.collect { case (id, sv) if ne.contains(id) =>
        id -> (HashVectors.normalize(sv) ++ HashVectors.normalize(ne(id)))
      }
    val (u1, u2) = (unified(fs.struct1, fs.sem1), unified(fs.struct2, fs.sem2))
    fs.local(Ceaff.Struct).tabulate((s, d) => EntityTables.cosine(u1, u2, s, d))
  }

  /** The similarity matrix of a named baseline, scored on `fs` on the
    * driver, or one of `fs`'s own matrices.
    */
  def matrix(b: EaBenchmark, fs: FeatureSet, name: String): LocalMatrix =
    name match {
      case "structShallow"   => StructuralFeature.matrix(b, layers = 1)
      case "structStandard"  => fs.local(Ceaff.Struct)
      case "structDeep"      => StructuralFeature.matrix(b, layers = 3)
      case "structBootstrap" => bootstrapMatrix(b, fs)
      case "repFusion"       => repFusionMatrix(fs)
      case other => throw new IllegalArgumentException(s"unknown baseline '$other'")
    }

  /** Independent-decision accuracy of a named baseline against `b`'s test
    * pairs, on the driver.
    */
  def accuracy(b: EaBenchmark, fs: FeatureSet, name: String): Double =
    Evaluation.accuracy(SimilarityMatrix.rowArgmax(matrix(b, fs, name)), b.testPairs)
}
