package ceaffbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.exp.Experiments
import repro.kg.{BenchmarkGen, EaBenchmark, GoldPair, NameModel, Scenario}

/** A workload's input: one generated benchmark with a fixed-size split. */
final case class Input(b: EaBenchmark, size: Input.Size)

object Input {

  /** Sizes recorded with every result. `cells` = #test sources × #test
    * targets, the size of every test-domain matrix.
    */
  final case class Size(gold: Long, seeds: Long, test: Long, cells: Long,
                        triples1: Long, triples2: Long)

  val SeedFraction = 0.3

  /** Seed ids for a fixed-size split: the ⌊0.3·nGold⌋ gold ids with the
    * smallest `NameModel.frac(s"split:$i:$seed")` (ties by id). The
    * generator's own split flips a coin per entity, so its test count —
    * and with it every matrix — changes with the seed; this one does not.
    */
  def seedIds(nGold: Long, seed: Long): Set[Long] = {
    val k = math.floor(SeedFraction * nGold).toInt
    (0L until nGold).sortBy(i => (NameModel.frac(s"split:$i:$seed"), i)).take(k).toSet
  }

  /** Re-split `b`'s gold pairs (all `(i, i)` for `i < nGold`) through
    * `EaBenchmark.copy`, with the same range-filter-map plan shape as
    * `BenchmarkGen.generate` so partitioning is unchanged.
    */
  def resplit(spark: SparkSession, b: EaBenchmark, seed: Long): EaBenchmark = {
    import spark.implicits._
    val ids = seedIds(b.nGold, seed)
    val gold = spark.range(b.nGold).as[Long]
    b.copy(
      seeds = gold.filter(i => ids(i)).map(i => GoldPair(i, i)).toDF(),
      test = gold.filter(i => !ids(i)).map(i => GoldPair(i, i)).toDF())
  }

  /** Generate, cache, re-split and materialise every input member, so the
    * timed passes start from cached data. Returns the cached input.
    */
  def build(spark: SparkSession, scenario: Scenario, scale: Double, seed: Long): Input = {
    val sz = Experiments.sizesFor(scenario.group, scale)
    val gen = BenchmarkGen.generate(spark, scenario, sz.nGold, sz.nFringe, seed)
    val b = resplit(spark, gen, seed).cached()
    val counts = members(b).map(_.count())
    val Seq(t1, t2, _, _, _, _, nSeeds, nTest) = counts
    Input(b, Size(b.nGold, nSeeds, nTest, nTest * nTest, t1, t2))
  }

  /** The members `EaBenchmark.cached` caches, in its order. */
  def members(b: EaBenchmark): Seq[DataFrame] =
    Seq(b.triples1, b.triples2, b.names1, b.names2, b.dict1, b.dict2, b.seeds, b.test)

  def release(in: Input): Unit = members(in.b).foreach(_.unpersist(blocking = true))

  /** Test source and target ids (gold pairs are `(i, i)`). */
  def testIds(spark: SparkSession, b: EaBenchmark): (Set[Long], Set[Long]) = {
    import spark.implicits._
    val t = b.test.select(col("src"), col("dst")).as[(Long, Long)].collect()
    (t.map(_._1).toSet, t.map(_._2).toSet)
  }
}
