package ceaffbench

import Main.{PassRecord, median}

/** Per-layer metrics of a traced run, from its spans and pass records. */
object Report {

  /** Wall time and Spark work of each layer within one traced pass. */
  final case class LayerStat(wallS: Double, work: Work)

  /** Layer name → totals of that layer's spans that are children of `pass`. */
  def layersOf(pass: Span, spans: Seq[Span]): Map[String, LayerStat] =
    spans.filter(_.parent == pass.id).groupBy(_.name).map { case (n, ss) =>
      n -> LayerStat(ss.map(_.wallS).sum, ss.map(_.work).reduce(_ + _))
    }

  /** All Spark work of one traced pass: its own and its children's. */
  def passWork(pass: Span, spans: Seq[Span]): Work =
    spans.filter(_.parent == pass.id).map(_.work).foldLeft(pass.work)(_ + _)

  def perLayer(spans: Seq[Span], records: Seq[PassRecord], slots: Int): Seq[(String, Double, String)] = {
    val passes = spans.filter(s => s.name == "pass" && s.parent == -1)
    val perPass = passes.map(p => layersOf(p, spans))
    val prepared = spans.filter(s => s.name == "prepare" && s.parent == -1).map(p => layersOf(p, spans))
    val gens = spans.filter(s => s.name == "gen" && s.parent == -1).map(s => LayerStat(s.wallS, s.work))
    // A layer is measured where it runs: in the passes, else in the
    // once-per-run preparation, else (set-up) in the input builds.
    def stats(layer: String): Seq[LayerStat] =
      if (layer == "gen") gens
      else if (perPass.exists(_.contains(layer)) || !prepared.exists(_.contains(layer)))
        perPass.map(_.getOrElse(layer, LayerStat(0, Work())))
      else prepared.flatMap(_.get(layer))
    def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else median(xs)

    val layerMetrics = Workload.layers.flatMap { l =>
      val ss = stats(l)
      def idle(s: LayerStat) = if (s.wallS <= 0) 0.0 else 1.0 - s.work.busyMs / 1e3 / (s.wallS * slots)
      Seq(
        (s"$l.wall_s", med(ss.map(_.wallS)), "s"),
        (s"$l.jobs", med(ss.map(_.work.jobs.toDouble)), "count"),
        (s"$l.tasks", med(ss.map(_.work.tasks.toDouble)), "count"),
        (s"$l.busy_s", med(ss.map(_.work.busyMs / 1e3)), "s"),
        (s"$l.idle_frac", med(ss.map(idle)), "fraction"))
    }

    val totals = passes.map(p => passWork(p, spans))
    val traced = records.filter(_.kind == "traced")
    val timed = records.filter(_.kind == "timed")
    val pairsPerJob = traced.zip(perPass).map { case (r, ls) =>
      val jobs = ls.get("daa").map(_.work.jobs).getOrElse(0L)
      if (jobs == 0) 0.0 else r.daaPairs.toDouble / jobs
    }
    // Quality figures of the layers that produce them (0 where not run).
    def quality(k: String) = med(traced.map(_.quality.getOrElse(k, 0.0)))
    layerMetrics ++ Seq(
      ("rank.hits10", quality("hits10"), "fraction"),
      ("rank.mrr", quality("mrr"), "fraction"),
      ("lr.accuracy", quality("accuracy_lr"), "fraction"),
      ("spark.jobs", med(totals.map(_.jobs.toDouble)), "count"),
      ("spark.stages", med(totals.map(_.stages.toDouble)), "count"),
      ("spark.tasks", med(totals.map(_.tasks.toDouble)), "count"),
      ("spark.shuffle_read_mb", med(totals.map(_.shuffleReadBytes / 1e6)), "MB"),
      ("spark.gc_s", med(totals.map(_.gcMs / 1e3)), "s"),
      ("cache.leaked_rdds", med(timed.map(_.leakedRdds.toDouble)), "count"),
      ("cache.leaked_mb", med(timed.map(_.leakedMb)), "MB"),
      ("daa.pairs_per_job", med(pairsPerJob), "pairs/job"),
      ("trace.overhead_s", med(traced.map(_.wallS)) - med(timed.map(_.wallS)), "s"))
  }
}
