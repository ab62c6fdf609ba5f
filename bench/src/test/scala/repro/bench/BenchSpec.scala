package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Base for bench suites: shared SparkSession + result capture.
  *
  * Each bench prints its paper table to stdout (so `sbt bench/test`
  * output can be pasted into EXPERIMENTS.md) and asserts the *shape*
  * invariants the paper reports — orderings between methods and
  * datasets, not absolute numbers (DESIGN.md §4).
  */
trait BenchSpec extends SparkSpec {

  lazy val scale: Double = BenchSpec.scale

  /** Print a clearly delimited result block. */
  def emit(title: String, body: String): Unit = {
    println(s"\n===== $title (scale=$scale) =====")
    println(body)
    println("=" * (title.length + 14))
  }
}

object BenchSpec {

  /** Benchmark scale; `REPRO_SCALE` overrides (1.0 ≈ default bench). */
  lazy val scale: Double = Experiments.envScale(1.0)

  /** Table III's rows, computed once per run: Table VI is a slice of them. */
  lazy val table3Rows: Seq[Experiments.RankRow] = Experiments.table3(SparkSpec.shared, scale)
}
