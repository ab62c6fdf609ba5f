package repro.exp

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
    assert(rows.map(_._1) == Experiments.accuracyMethods)
    rows.foreach { case (m, a) => assert(a >= 0.0 && a <= 1.0, s"$m: $a") }
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
