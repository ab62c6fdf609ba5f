package ceaffbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.StableMatching
import repro.kg.Scenario
import scala.jdk.CollectionConverters._

/** The benchmark's own logic, on tiny inputs: metric names and units, the
  * correctness checks, the cache reset between passes, the fixed-size split
  * and span accounting.
  */
class BenchmarkSpec extends AnyFunSuite with BeforeAndAfterAll {

  lazy val spark: SparkSession = Env.session()
  override def afterAll(): Unit = { spark.stop(); super.afterAll() }

  private val json = new ObjectMapper()
  private val TinyScale = 0.05
  private lazy val spec: JsonNode = json.readTree(Paths.get("..", "BENCHMARK.json").toFile)

  private def declared(section: String): Seq[(String, String)] =
    spec.get(section).elements().asScala.map(m => m.get("name").asText() -> m.get("unit").asText()).toSeq

  /** Runs one tiny benchmark run; returns its exit code and record. */
  private def tinyRun(workload: String, trace: Boolean, seed: Long = 3): (Int, JsonNode) = {
    val out = Paths.get("target", "test-results", s"$workload-$trace-$seed.json")
    Files.deleteIfExists(out)
    val args = Main.Args(Workload.byName(workload), seed, seconds = 1, trace, Some(out.toString), TinyScale)
    val code = Main.run(spark, args, sessionS = 0)
    (code, json.readTree(out.toFile))
  }

  private def metrics(record: JsonNode): Map[String, (Double, String)] =
    record.get("result").get("metrics").fields().asScala.map { e =>
      e.getKey -> (e.getValue.get("value").asDouble(), e.getValue.get("unit").asText())
    }.toMap

  private lazy val runs: Map[(String, Boolean), (Int, JsonNode)] =
    (for (w <- Workload.all.map(_.name); t <- Seq(false, true)) yield (w, t) -> tinyRun(w, t)).toMap

  test("both workloads emit every declared metric with its unit") {
    for (((w, trace), (code, rec)) <- runs) {
      assert(code == 0, s"$w trace=$trace failed: ${rec.get("passes")}")
      val got = metrics(rec)
      val want = declared(if (trace) "per_layer" else "end_to_end")
      assert(got.keySet == want.map(_._1).toSet, s"$w trace=$trace")
      for ((name, unit) <- want) assert(got(name)._2 == unit, s"$w $name")
      val r = rec.get("result")
      assert(r.get("correct").asBoolean() && r.get("failed").asInt() == 0 && r.get("attempted").asInt() >= 1)
    }
  }

  test("the independent workload never runs AFF or DAA") {
    val m = metrics(runs(("en-fr-independent", true))._2)
    assert(m("aff.jobs")._1 == 0 && m("daa.jobs")._1 == 0)
    assert(m("greedy.jobs")._1 > 0 && m("lr.jobs")._1 > 0 && m("rank.jobs")._1 > 0)
    val c = metrics(runs(("zh-en-collective", true))._2)
    assert(c("aff.jobs")._1 > 0 && c("daa.jobs")._1 > 0 && c("daa.pairs_per_job")._1 > 0)
  }

  test("per-span job counts sum to the pass totals") {
    for (w <- Workload.all.map(_.name)) {
      val rec = runs((w, true))._2
      val spans = rec.get("spans").elements().asScala.toSeq
      val pass = spans.filter(s => s.get("name").asText() == "pass" && s.get("parent").asInt() == -1)
      assert(pass.size == 1, w)
      val id = pass.head.get("id").asInt()
      val children = spans.filter(_.get("parent").asInt() == id)
      assert(pass.head.get("jobs").asLong() == 0, s"$w: jobs outside any layer span")
      val m = metrics(rec)
      assert(children.map(_.get("jobs").asLong()).sum == m("spark.jobs")._1, w)
      assert(children.map(_.get("tasks").asLong()).sum == m("spark.tasks")._1, w)
      val inPass = children.map(_.get("name").asText()).toSet
      assert(inPass.toSeq.map(l => m(s"$l.jobs")._1).sum == m("spark.jobs")._1, w)
    }
  }

  test("every pass starts from the same cache state") {
    // Ceaff.fuse leaves its cached textual matrix behind. Dropped after each
    // pass, it is recomputed and leaked again by every pass, not served to
    // later passes from the query cache.
    val passes = runs(("zh-en-collective", false))._2.get("passes").elements().asScala.toSeq
    val leaked = passes.map(_.get("leaked_rdds").asInt())
    assert(leaked.size >= 3 && leaked.forall(_ == leaked.head) && leaked.head > 0, leaked)

    val base = Caches.snapshot(spark)
    val df = spark.range(100).selectExpr("id * 2 AS x").cache()
    df.count()
    spark.sparkContext.parallelize(1 to 10).cache().count()
    assert(Caches.newRdds(spark, base).size == 2)
    Caches.resetTo(spark, base)
    assert(Caches.newRdds(spark, base).isEmpty)
    assert(df.storageLevel == StorageLevel.NONE)
  }

  test("the fixed-size split gives the same counts for every seed") {
    val sizes = (1L to 4L).map(seed => Input.build(spark, Scenario.Dbp15kZhEn, TinyScale, seed))
    try {
      assert(sizes.map(_.size.test).distinct.size == 1)
      assert(sizes.map(_.size.seeds).distinct == Seq(math.floor(0.3 * sizes.head.size.gold).toLong))
      assert(sizes.map(_.size.cells).distinct.size == 1)
    } finally sizes.foreach(Input.release)
    assert((1L to 20L).map(Input.seedIds(200, _).size).distinct == Seq(60))
  }

  // A 3×3 matrix whose stable matching is the diagonal.
  private val cells = Seq(
    (1L, 1L, 0.9), (1L, 2L, 0.5), (1L, 3L, 0.1),
    (2L, 1L, 0.4), (2L, 2L, 0.8), (2L, 3L, 0.3),
    (3L, 1L, 0.2), (3L, 2L, 0.6), (3L, 3L, 0.7))
  private val ids = Set(1L, 2L, 3L)

  test("checks accept the stable matching") {
    val good = StableMatching.referenceDaa(cells).toSeq
    assert(good.toSet == Set((1L, 1L), (2L, 2L), (3L, 3L)))
    assert(Checks.stable("daa", cells, good).isEmpty)
    assert(Checks.matching(Matching("daa", good, collective = true), ids, ids).isEmpty)
  }

  test("checks catch a matching with two pairs swapped") {
    val swapped = Seq((1L, 2L), (2L, 1L), (3L, 3L))
    val problems = Checks.stable("daa", cells, swapped)
    assert(problems.exists(_.contains("differs from referenceDaa")))
    assert(problems.exists(_.contains("blocking pairs")))
  }

  test("checks catch a duplicated target and a short matching") {
    val dup = Seq((1L, 1L), (2L, 1L), (3L, 3L))
    assert(Checks.matching(Matching("daa", dup, collective = true), ids, ids)
      .exists(_.contains("targets matched twice")))
    // Row-argmax may share targets, but must cover every test source.
    assert(Checks.matching(Matching("greedy", dup, collective = false), ids, ids).isEmpty)
    assert(Checks.matching(Matching("greedy", dup.take(2), collective = false), ids, ids)
      .exists(_.contains("covers 2 of 3")))
    assert(Checks.matching(Matching("daa", Seq((1L, 1L)), collective = true), ids, ids)
      .exists(_.contains("expected 3")))
  }

  test("checks catch out-of-range and changing quality figures") {
    assert(Checks.fractions(Map("accuracy" -> 1.2, "mrr" -> Double.NaN, "hits10" -> 0.5)).size == 2)
    assert(Checks.sameAsFirst(Map("accuracy" -> 0.5), Map("accuracy" -> 0.5)).isEmpty)
    assert(Checks.sameAsFirst(Map("accuracy" -> 0.5), Map("accuracy" -> 0.6)).nonEmpty)
  }
}
