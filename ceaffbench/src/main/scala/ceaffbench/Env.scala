package ceaffbench

import org.apache.spark.sql.SparkSession

/** The fixed execution environment. Every setting comes from here, none
  * from the caller's environment (`SPARK_MASTER`,
  * `SPARK_SHUFFLE_PARTITIONS`, ...): accuracy depends on core and partition
  * count, so changing any of these is a change of the benchmark.
  */
object Env {
  val Slots = 2
  val Master = s"local[$Slots]"
  val ShufflePartitions = 8

  /** Working directory for Spark's scratch files, set by run.py. */
  def workDir: String = sys.props.getOrElse("ceaffbench.work", "target/work")

  private def settings: Seq[(String, String)] = Seq(
    "spark.master" -> Master,
    "spark.sql.shuffle.partitions" -> ShufflePartitions.toString,
    // As the program's tests: joins take the shuffle path.
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled" -> "false",
    // Adaptive query execution stays at Spark's default (on), as in the
    // program's tests: it changes plans, partitioning and results.
    // One pass plans more distinct queries than the default 100-entry
    // cache of generated classes holds. At the default every pass
    // recompiles its generated code and the JIT never settles.
    "spark.sql.codegen.cache.maxEntries" -> "2000",
    // Keep caches a pass forgets to release until the pass is measured;
    // a GC-driven cleaner would otherwise hide leaks at random.
    "spark.cleaner.referenceTracking" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.driver.bindAddress" -> "127.0.0.1",
    "spark.local.dir" -> s"$workDir/spark-local",
    "spark.sql.warehouse.dir" -> s"$workDir/warehouse")

  def session(): SparkSession =
    settings.foldLeft(SparkSession.builder.appName("ceaffbench")) {
      case (b, (k, v)) => b.config(k, v)
    }.getOrCreate()

  /** What every result records about the environment it ran in. */
  def recorded(spark: SparkSession): Seq[(String, String)] =
    settings.filterNot(_._1.contains("dir")) ++ Seq(
      "spark.version" -> spark.version,
      "java.version" -> sys.props.getOrElse("java.version", "?"),
      "jvm.max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "host.cpus" -> Runtime.getRuntime.availableProcessors.toString)
}
