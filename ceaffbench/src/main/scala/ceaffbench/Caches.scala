package ceaffbench

import org.apache.spark.ListenerDrain
import org.apache.spark.sql.{SparkSession, classic}
import org.apache.spark.sql.execution.{CacheManager, CachedData}

/** The cache state every pass starts from, and how to return to it.
  *
  * A pass may leave cached data behind: RDDs it persisted and Dataset
  * caches (`Dataset.cache`) it never unpersisted. The benchmark measures
  * that leak after each pass, then drops it, outside the timer, so the
  * next pass cannot reuse it (the query cache would serve a repeated plan
  * from it) and leaks do not pile up across passes.
  */
final case class Caches(entries: Seq[CachedData], rdds: Set[Int])

object Caches {

  private def session(spark: SparkSession): classic.SparkSession =
    spark.asInstanceOf[classic.SparkSession]

  private def manager(spark: SparkSession): CacheManager =
    session(spark).sharedState.cacheManager

  // The cache manager keeps its entries private; there is no public way
  // to list them.
  private val cachedData = {
    val m = classOf[CacheManager].getDeclaredMethod("cachedData")
    m.setAccessible(true)
    m
  }

  private def entriesOf(spark: SparkSession): Seq[CachedData] =
    cachedData.invoke(manager(spark)).asInstanceOf[IndexedSeq[CachedData]].toSeq

  private def rddsOf(spark: SparkSession): Set[Int] =
    spark.sparkContext.getPersistentRDDs.keySet.toSet

  def snapshot(spark: SparkSession): Caches = Caches(entriesOf(spark), rddsOf(spark))

  /** Ids of the persistent RDDs that were not persistent at `base`. */
  def newRdds(spark: SparkSession, base: Caches): Set[Int] = rddsOf(spark) -- base.rdds

  /** Memory plus disk held by the cached blocks of `ids`. */
  def mb(spark: SparkSession, ids: Set[Int]): Double = {
    val sc = spark.sparkContext
    ListenerDrain(sc) // storage sizes come from listener events
    sc.getRDDStorageInfo.filter(i => ids(i.id)).map(i => i.memSize + i.diskSize).sum / 1e6
  }

  /** Uncache every Dataset cache and RDD added since `base`. */
  def resetTo(spark: SparkSession, base: Caches): Unit = {
    for (e <- entriesOf(spark) if !base.entries.exists(_ eq e))
      manager(spark).uncacheQuery(session(spark), e.plan, cascade = false, blocking = true)
    val persistent = spark.sparkContext.getPersistentRDDs
    for (id <- newRdds(spark, base)) persistent.get(id).foreach(_.unpersist(blocking = true))
  }
}
