package ceaffbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * One JVM per run, one closed-loop driver, passes back to back:
  *  1. set up the input `SetupRepeats` times (`setup_s` is the median);
  *  2. compute what the workload shares across passes, then run
  *     `Warmups` untimed warm-up passes;
  *  3. time `timedPasses` whole passes, about `--seconds` in all; with
  *     `--trace 1`, one untraced pass then one traced pass.
  * Every pass is checked outside the timer, and every pass starts from the
  * same cache state: what a pass leaves cached is measured, then dropped
  * (see [[Caches]]). The last stdout line is the
  * result `{"correct", "attempted", "failed", "metrics"}`; the full record
  * (input sizes, environment, samples, spans) goes to `--out` if given.
  */
object Main {

  val SetupRepeats = 3
  val Warmups = 1
  val MinPasses = 2
  /** A warm pass's wall time on the reference machine (README), on both
    * workloads.
    */
  val TypicalPassS = 7.5

  /** Timed passes per run: a count fixed by `--seconds`, not "until the
    * time is up". Passes still speed up from one to the next as the JIT
    * settles, so a count that followed machine speed would move the median.
    */
  def timedPasses(seconds: Double): Int =
    math.max(MinPasses, math.round(seconds / TypicalPassS).toInt)

  /** `scale` is the workload's own except in the benchmark's tests, which
    * run on tiny inputs.
    */
  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        out: Option[String], scale: Double)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    val w = Workload.byName(need("workload"))
    Args(w, need("seed").toLong, seconds, trace, kv.get("out"), w.scale)
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val t0 = System.nanoTime()
    val spark = Env.session()
    val code =
      try run(spark, args, (System.nanoTime() - t0) / 1e9)
      finally spark.stop()
    sys.exit(code)
  }

  /** Facts about one pass, measured or checked outside its timer. */
  final case class PassRecord(kind: String, wallS: Double, quality: Map[String, Double],
                              leakedRdds: Int, leakedMb: Double, problems: Seq[String],
                              daaPairs: Int)

  /** One run; returns the exit code. */
  def run(spark: SparkSession, args: Args, sessionS: Double): Int = {
    val w = args.workload
    val scale = args.scale
    val sc = spark.sparkContext
    val runId = s"${w.name}-s${args.seed}-t${if (args.trace) 1 else 0}-${System.currentTimeMillis()}"
    val listener = new WorkListener
    if (args.trace) sc.addSparkListener(listener)
    val tracer = new Tracer(sc, runId, listener)

    // --- set-up -------------------------------------------------------
    val empty = Caches.snapshot(spark)
    val setupS = mutable.ArrayBuffer.empty[Double]
    var in: Input = null
    for (_ <- 1 to SetupRepeats) {
      if (in != null) Input.release(in)
      val s0 = System.nanoTime()
      in = if (args.trace) tracer.span("gen")(Input.build(spark, w.scenario, scale, args.seed))
           else Input.build(spark, w.scenario, scale, args.seed)
      setupS += (System.nanoTime() - s0) / 1e9
    }
    val b = in.b
    val (testSrc, testDst) = Input.testIds(spark, b)
    val inputsMb = Caches.mb(spark, Caches.newRdds(spark, empty))
    val p0 = System.nanoTime()
    val shared = w.prepare(spark, b, if (args.trace) Some(tracer) else None)
    val prepareS = (System.nanoTime() - p0) / 1e9
    // The cache state every pass starts from: input and shared features.
    val base = Caches.snapshot(spark)

    // --- passes ---------------------------------------------------------
    val records = mutable.ArrayBuffer.empty[PassRecord]
    var firstQuality: Option[Map[String, Double]] = None
    var stopped = false

    def onePass(kind: String): Unit = {
      val t0 = System.nanoTime()
      val attempt =
        try Right(if (kind == "traced") w.tracedPass(spark, b, shared, tracer) else w.pass(spark, b, shared))
        catch { case NonFatal(e) => Left(e) }
      val wallS = (System.nanoTime() - t0) / 1e9
      attempt match {
        case Left(e) =>
          records += PassRecord(kind, wallS, Map.empty, 0, 0, Seq(s"pass threw: $e"), 0)
          stopped = true
        case Right(out) =>
          val problems = Seq.newBuilder[String]
          var daaPairs = 0
          try {
            for ((name, df, collective) <- out.matchings) {
              val pairs = collectPairs(spark, df)
              if (collective) daaPairs += pairs.size
              problems ++= Checks.matching(Matching(name, pairs, collective), testSrc, testDst)
            }
            // Once per run, on the first timed pass: the distributed DAA
            // against the sequential oracle.
            if (kind == "timed" && records.count(_.kind == "timed") == 0)
              for (fused <- out.daaInput; (name, df, true) <- out.matchings)
                problems ++= Checks.stable(name, collectCells(spark, fused), collectPairs(spark, df))
            problems ++= Checks.fractions(out.quality)
            if (out.quality.contains("hits1") && out.quality("hits1") != out.quality("accuracy"))
              problems += s"hits1 ${out.quality("hits1")} != row-argmax accuracy ${out.quality("accuracy")}"
            firstQuality match {
              case None => firstQuality = Some(out.quality)
              case Some(f) => problems ++= Checks.sameAsFirst(f, out.quality)
            }
          } catch { case NonFatal(e) => problems += s"check threw: $e" }
          out.release()
          val leaked = Caches.newRdds(spark, base)
          val rec = PassRecord(kind, wallS, out.quality, leaked.size, Caches.mb(spark, leaked),
            problems.result(), daaPairs)
          records += rec
          if (rec.problems.nonEmpty) stopped = true
      }
      Caches.resetTo(spark, base)
      val last = records.last
      Console.err.println(f"[ceaffbench] ${w.name} ${last.kind}%-6s pass ${records.size}%2d: " +
        f"${last.wallS}%.3f s, leaked ${last.leakedRdds} RDDs / ${last.leakedMb}%.3f MB" +
        (if (last.problems.isEmpty) "" else s", FAILED: ${last.problems.mkString("; ")}"))
    }

    for (_ <- 1 to Warmups if !stopped) onePass("warmup")
    if (args.trace) {
      onePass("timed")
      if (!stopped) onePass("traced")
    } else
      for (_ <- 1 to timedPasses(args.seconds) if !stopped) onePass("timed")

    // --- result ---------------------------------------------------------
    val failed = records.count(_.problems.nonEmpty)
    val timed = records.filter(_.kind == "timed")
    // Cached blocks one pass leaves held beside the input it ran on.
    val retainedMb = inputsMb + median(timed.map(_.leakedMb).toSeq)
    val quality = timed.headOption.map(_.quality).getOrElse(Map.empty)
    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) Seq(
        ("setup_s", median(setupS.toSeq), "s"),
        ("run_s", median(timed.map(_.wallS).toSeq), "s"),
        ("accuracy", quality.getOrElse("accuracy", Double.NaN), "fraction"),
        ("retained_mb", retainedMb, "MB"))
      else Report.perLayer(tracer.spans, records.toSeq, slots = Env.Slots)

    val context = obj(
      "run_id" -> runId,
      "workload" -> w.name,
      "scenario" -> w.scenario.name,
      "scale" -> scale,
      "seed" -> args.seed,
      "gold" -> in.size.gold, "seed_pairs" -> in.size.seeds,
      "test_pairs" -> in.size.test, "cells" -> in.size.cells,
      "triples1" -> in.size.triples1, "triples2" -> in.size.triples2,
      "inputs_mb" -> inputsMb,
      "prepare_s" -> prepareS,
      "session_s" -> sessionS,
      "setup_samples_s" -> setupS.toSeq,
      "env" -> obj(Env.recorded(spark): _*))
    val passes = records.toSeq.map(r => obj(
      "kind" -> r.kind, "wall_s" -> r.wallS,
      "leaked_rdds" -> r.leakedRdds, "leaked_mb" -> r.leakedMb,
      "quality" -> obj(r.quality.toSeq.sortBy(_._1): _*),
      "problems" -> r.problems))
    val spans = tracer.spans.map(s => obj(
      "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "run_id" -> s.runId,
      "jobs" -> s.work.jobs, "tasks" -> s.work.tasks, "busy_ms" -> s.work.busyMs))
    val correct = failed == 0 && timed.nonEmpty && metrics.forall(m => !m._2.isNaN)
    val result = obj(
      "correct" -> correct,
      "attempted" -> records.size,
      "failed" -> failed,
      "metrics" -> obj(metrics.map { case (k, v, u) => k -> obj("value" -> v, "unit" -> u) }: _*))
    args.out.foreach { p =>
      Files.createDirectories(Paths.get(p).toAbsolutePath.getParent)
      Files.writeString(Paths.get(p), json.writeValueAsString(obj("context" -> context,
        "result" -> result, "passes" -> passes, "spans" -> spans)) + "\n")
    }
    Console.err.println(s"[ceaffbench] context ${json.writeValueAsString(context)}")
    println(json.writeValueAsString(result))
    if (correct) 0 else 1
  }

  private def collectPairs(spark: SparkSession, df: org.apache.spark.sql.DataFrame): Seq[(Long, Long)] = {
    import spark.implicits._
    df.select(col("src"), col("dst")).as[(Long, Long)].collect().toSeq
  }

  private def collectCells(spark: SparkSession, df: org.apache.spark.sql.DataFrame): Seq[(Long, Long, Double)] = {
    import spark.implicits._
    df.select(col("src"), col("dst"), col("score")).as[(Long, Long, Double)].collect().toSeq
  }

  private val json = new ObjectMapper()

  /** A JSON object for Jackson, keys in order. Numbers keep all their
    * digits; NaN and infinities become `null`.
    */
  private def obj(kvs: (String, Any)*): java.util.Map[String, Any] = {
    def value(v: Any): Any = v match {
      case d: Double if d.isNaN || d.isInfinite => null
      case xs: Seq[_] => xs.map(value).asJava
      case x => x
    }
    val m = new java.util.LinkedHashMap[String, Any]()
    kvs.foreach { case (k, v) => m.put(k, value(v)) }
    m
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted; val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}
