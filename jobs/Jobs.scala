package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Shared spark-submit plumbing for the per-table entrypoints.
  *
  * Usage: `spark-submit --class repro.jobs.RunCrossLingual repro.jar [scale]`
  * — `scale` multiplies the benchmark sizes (default 1.0; `REPRO_SCALE`
  * is honoured when no argument is given).
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def scaleOf(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(Experiments.envScale())
}

/** Table II: statistics of the generated benchmark. */
object DatasetStats {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("ceaff-table2")
    println("== Table II — benchmark statistics ==")
    println(Experiments.formatStats(Experiments.table2(spark, Jobs.scaleOf(args))))
    spark.stop()
  }
}

/** Table III: cross-lingual EA accuracy, CEAFF vs baseline proxies. */
object RunCrossLingual {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("ceaff-table3")
    val rows = Experiments.hitsAt1(Experiments.table3(spark, Jobs.scaleOf(args)))
    println("== Table III — cross-lingual EA accuracy ==")
    println(Experiments.pivot(rows, Experiments.accuracyMethods,
      Experiments.table3Datasets.map(_.name)))
    spark.stop()
  }
}

/** Table IV: mono-lingual EA accuracy. */
object RunMonoLingual {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("ceaff-table4")
    val rows = Experiments.hitsAt1(Experiments.table4(spark, Jobs.scaleOf(args)))
    println("== Table IV — mono-lingual EA accuracy ==")
    println(Experiments.pivot(rows, Experiments.accuracyMethods,
      Experiments.table4Datasets.map(_.name)))
    spark.stop()
  }
}

/** Table V: ablation study + LR weighting baseline. */
object RunAblation {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("ceaff-table5")
    val rows = Experiments.table5(spark, Jobs.scaleOf(args))
    println("== Table V — ablation study ==")
    println(Experiments.pivot(rows,
      Experiments.ablations.map(_._1) :+ "LR",
      Experiments.table5Datasets.map(_.name)))
    spark.stop()
  }
}

/** Table VI: ranking evaluation (Hits@1/10, MRR) on DBP15K-like data. */
object RunRanking {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("ceaff-table6")
    val rows = Experiments.table6(Experiments.accuracyTable(spark,
      Experiments.table6Datasets, Jobs.scaleOf(args)))
    println("== Table VI — evaluation as ranking problem ==")
    println(Experiments.formatRanking(rows))
    spark.stop()
  }
}
