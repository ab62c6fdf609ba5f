package repro.bench

import repro.exp.Experiments

/** Table IV — mono-lingual EA accuracy on DBP100K-like (dense) and
  * SRPRS-like (sparse) DBP-WD / DBP-YG pairs, including the
  * "CEAFF w/o M^l" row the paper adds for comparability.
  */
class Table4MonoLingualBench extends BenchSpec {

  test("Table IV: mono-lingual EA accuracy") {
    val rows = Experiments.hitsAt1(Experiments.table4(spark, scale))
    emit("Table IV — mono-lingual EA accuracy",
      Experiments.pivot(rows, Experiments.accuracyMethods,
        Experiments.table4Datasets.map(_.name)))

    val acc = rows.map { case (m, d, v) => (m, d) -> v }.toMap
    val datasets = Experiments.table4Datasets.map(_.name)

    // Paper shape 1: CEAFF best everywhere; near-perfect (paper: 1.000).
    for (d <- datasets) {
      for (m <- Experiments.accuracyMethods if m != "ceaff")
        assert(acc(("ceaff", d)) >= acc((m, d)), s"CEAFF below $m on $d")
      assert(acc(("ceaff", d)) > 0.95, s"CEAFF only ${acc(("ceaff", d))} on $d")
    }

    // Paper shape 2: dropping the string feature costs accuracy
    // (paper: 1.000 -> 0.915..0.992) but stays well above structure-only.
    for (d <- datasets) {
      assert(acc(("ceaffNoStr", d)) <= acc(("ceaff", d)) + 1e-9, d)
      assert(acc(("ceaffNoStr", d)) > acc(("structStandard", d)),
        s"CEAFF w/o M^l should still beat structure-only on $d")
    }

    // Paper shape 3: structure-only proxies collapse on sparse mono
    // datasets relative to dense ones (paper: 0.48-0.78 -> 0.15-0.4).
    assert(acc(("structStandard", "SRPRS_DBP-WD")) <
           acc(("structStandard", "DBP100K_DBP-WD")),
      "structure-only should degrade from dense DBP100K to sparse SRPRS")
  }
}
