package repro.bench

import repro.exp.Experiments

/** Table III — cross-lingual EA accuracy: CEAFF vs baseline proxies on
  * three dense distant/close pairs (DBP15K-like) and two sparse close
  * pairs (SRPRS-like).
  */
class Table3CrossLingualBench extends BenchSpec {

  test("Table III: cross-lingual EA accuracy") {
    val rows = Experiments.hitsAt1(BenchSpec.table3Rows)
    emit("Table III — cross-lingual EA accuracy",
      Experiments.pivot(rows, Experiments.accuracyMethods,
        Experiments.table3Datasets.map(_.name)))

    val acc = rows.map { case (m, d, v) => (m, d) -> v }.toMap
    val datasets = Experiments.table3Datasets.map(_.name)

    // Paper shape 1: CEAFF is the best method on every dataset.
    for (d <- datasets; m <- Experiments.accuracyMethods if m != "ceaff")
      assert(acc(("ceaff", d)) >= acc((m, d)),
        s"CEAFF (${acc(("ceaff", d))}) below $m (${acc((m, d))}) on $d")

    // Paper shape 2: name-aware methods (repFusion, CEAFF) dominate
    // structure-only methods on closely-related pairs.
    for (d <- Seq("DBP15K_FR-EN", "SRPRS_EN-FR", "SRPRS_EN-DE"))
      assert(acc(("repFusion", d)) > acc(("structStandard", d)),
        s"repFusion should beat structure-only on $d")

    // Paper shape 3: CEAFF is nearly perfect on closely-related pairs
    // (paper: 0.964-0.977) but clearly lower on distant ZH-EN (0.795).
    assert(acc(("ceaff", "SRPRS_EN-FR")) > 0.85)
    assert(acc(("ceaff", "SRPRS_EN-DE")) > 0.85)
    assert(acc(("ceaff", "DBP15K_ZH-EN")) < acc(("ceaff", "DBP15K_FR-EN")),
      "ZH-EN should be harder than FR-EN for CEAFF")

    // Paper shape 4: structure-only methods do worse on sparse SRPRS
    // than on dense DBP15K (degree-driven signal).
    val structDense = acc(("structStandard", "DBP15K_FR-EN"))
    val structSparse = acc(("structStandard", "SRPRS_EN-FR"))
    assert(structSparse < structDense,
      s"structure-only: sparse $structSparse should trail dense $structDense")
  }
}
