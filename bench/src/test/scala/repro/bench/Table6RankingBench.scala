package repro.bench

import repro.exp.Experiments

/** Table VI — evaluation as a ranking problem on the DBP15K-like pairs:
  * Hits@1 / Hits@10 / MRR for ranked methods, Hits@1 only for collective
  * CEAFF (its output has no ranked lists).
  */
class Table6RankingBench extends BenchSpec {

  test("Table VI: ranking metrics on DBP15K") {
    val rows = Experiments.table6(BenchSpec.table3Rows)
    emit("Table VI — evaluation as ranking problem", Experiments.formatRanking(rows))

    val by = rows.map(r => (r.method, r.dataset) -> r).toMap
    val datasets = Seq("DBP15K_ZH-EN", "DBP15K_JA-EN", "DBP15K_FR-EN")

    for (d <- datasets) {
      // CEAFF (collective) reports only Hits@1 — as in the paper.
      assert(by(("ceaff", d)).hitsAt10.isEmpty && by(("ceaff", d)).mrr.isEmpty)

      // Hits@1 <= Hits@10 and MRR in [Hits@1, 1] for every ranked method.
      for (m <- Experiments.rankingMethods.filter(_ != "ceaff")) {
        val r = by((m, d))
        assert(r.hitsAt10.get >= r.hitsAt1 - 1e-9, s"$m/$d hits ordering")
        assert(r.mrr.get >= r.hitsAt1 - 1e-9 && r.mrr.get <= 1.0 + 1e-9, s"$m/$d mrr")
      }

      // Paper shape: fused features beat every single-class baseline on
      // Hits@1 (repFusion may tie within noise — it shares two of the
      // three features), and collective CEAFF improves over CEAFF w/o C
      // and over every baseline outright.
      val fusedH1 = by(("ceaffNoC", d)).hitsAt1
      for (m <- Seq("structShallow", "structStandard", "structDeep",
                    "structBootstrap", "repFusion")) {
        assert(fusedH1 >= by((m, d)).hitsAt1 - 0.01,
          s"CEAFF w/o C ($fusedH1) below $m (${by((m, d)).hitsAt1}) on $d")
        assert(by(("ceaff", d)).hitsAt1 >= by((m, d)).hitsAt1,
          s"collective CEAFF below $m on $d")
      }
      assert(by(("ceaff", d)).hitsAt1 >= fusedH1 - 1e-9,
        s"collective CEAFF should not trail independent on $d")
    }

    // Language-distance shape: FR-EN easiest, ZH-EN hardest for CEAFF.
    assert(by(("ceaff", "DBP15K_FR-EN")).hitsAt1 >
           by(("ceaff", "DBP15K_ZH-EN")).hitsAt1)
  }
}
