package repro.exp

import repro.core.{Baselines, Ceaff, CeaffConfig, Evaluation}
import repro.kg.Scenario
import repro.{Fixtures, SparkSpec}

/** Harness sanity at tiny scale — the real numbers come from bench/. */
class ExperimentsSpec extends SparkSpec with Fixtures {

  private val TinyScale = 0.12

  test("sizesFor scales each group and respects the floor") {
    assert(Experiments.sizesFor("DBP100K", 1.0).nGold >
      Experiments.sizesFor("DBP15K", 1.0).nGold)
    assert(Experiments.sizesFor("SRPRS", 1e-9).nGold == 40)
    intercept[IllegalArgumentException] { Experiments.sizesFor("nope", 1.0) }
  }

  test("benchmark honours the scenario sizes") {
    val b = Experiments.benchmark(spark, Scenario.SrprsEnDe, TinyScale)
    val s = Experiments.sizesFor("SRPRS", TinyScale)
    assert(b.nGold == s.nGold)
    assert(b.seeds.count() + b.test.count() == s.nGold)
  }

  test("accuracies runs the full method roster on one benchmark") {
    val b = Experiments.benchmark(spark, Scenario.SrprsWd, TinyScale)
    val rows = Experiments.accuracies(spark, b)
    assert(rows.map(_.method) ==
      Baselines.names ++ Seq("ceaffNoStr", "ceaffNoC", "ceaff"))
    assert(rows.forall(_.dataset == Scenario.SrprsWd.name))
    rows.foreach { r =>
      assert(r.hitsAt1 >= 0.0 && r.hitsAt1 <= 1.0, s"${r.method}: ${r.hitsAt1}")
      // only the collective rows lack ranked lists
      val ranked = !Set("ceaffNoStr", "ceaff")(r.method)
      assert(r.hitsAt10.isDefined == ranked && r.mrr.isDefined == ranked, r.method)
    }
  }

  test("Table VI is the DBP15K slice of the accuracy rows, scored as Table III scores") {
    val b = Experiments.benchmark(spark, Scenario.Dbp15kZhEn, TinyScale)
    val rows = Experiments.accuracies(spark, b)
    val by = rows.map(r => r.method -> r).toMap
    val fs = Ceaff.features(spark, b)
    // a baseline's Hits@1 is its row-argmax accuracy, to the bit
    for (name <- Baselines.names)
      assert(by(name).hitsAt1 == Baselines.accuracy(b, fs, name), name)
    val full = Ceaff.run(spark, fs, CeaffConfig())
    assert(by("ceaff").hitsAt1 == Evaluation.accuracy(full.matching, b.testPairs))
    assert(by("ceaffNoC").hitsAt1 == Evaluation.rankingMetrics(full.local, b.testPairs).hitsAt1)

    val other = Experiments.accuracies(spark,
      Experiments.benchmark(spark, Scenario.SrprsEnFr, TinyScale))
    val slice = Experiments.table6(rows ++ other)
    assert(slice.map(r => (r.method, r.dataset)) ==
      Experiments.rankingMethods.map(_ -> Scenario.Dbp15kZhEn.name))
    assert(slice == rows.filter(_.method != "ceaffNoStr"))
  }

  test("ablationAccuracies covers every Table V row plus LR") {
    val b = Experiments.benchmark(spark, Scenario.SrprsEnFr, TinyScale)
    val rows = Experiments.ablationAccuracies(spark, b)
    assert(rows.map(_._1) == Experiments.ablations.map(_._1) :+ "LR")
    rows.foreach { case (m, a) => assert(a >= 0.0 && a <= 1.0, s"$m: $a") }
  }

  test("table2 reports stats for all nine KG pairs") {
    val stats = Experiments.table2(spark, TinyScale)
    assert(stats.map(_.dataset) == Scenario.all.map(_.name))
    stats.foreach { s =>
      assert(s.triples1 > 0 && s.triples2 > 0)
      assert(s.entities1 > s.goldPairs && s.entities2 > s.goldPairs)
      assert(s.seedPairs + s.testPairs == s.goldPairs)
    }
    val fmt = Experiments.formatStats(stats)
    assert(fmt.linesIterator.size == 10)
  }

  test("pivot renders a table with one row per method") {
    val rows = Seq(("m1", "d1", 0.5), ("m1", "d2", 0.25), ("m2", "d1", 1.0))
    val out = Experiments.pivot(rows, Seq("m1", "m2"), Seq("d1", "d2"))
    val lines = out.linesIterator.toSeq
    assert(lines.size == 3)
    assert(lines(1).contains("0.500") && lines(1).contains("0.250"))
    assert(lines(2).contains("1.000") && lines(2).contains("-"))
  }

  test("formatRanking renders hits columns and dashes for collective rows") {
    val rows = Seq(
      Experiments.RankRow("a", "d", 0.5, Some(0.9), Some(0.6)),
      Experiments.RankRow("ceaff", "d", 0.7, None, None))
    val out = Experiments.formatRanking(rows)
    assert(out.linesIterator.size == 3)
    assert(out.contains("0.700") && out.contains("-"))
  }

  test("envScale defaults when REPRO_SCALE is unset") {
    assert(Experiments.envScale(2.5) == (sys.env.get("REPRO_SCALE")
      .map(_.toDouble).getOrElse(2.5)))
  }
}
