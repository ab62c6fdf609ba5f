package ceaffbench

import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work attributed to one span: counted from listener events of the
  * jobs that ran under the span's job group.
  */
final case class Work(jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
                      busyMs: Long = 0, gcMs: Long = 0, shuffleReadBytes: Long = 0) {
  def +(o: Work): Work = Work(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
    busyMs + o.busyMs, gcMs + o.gcMs, shuffleReadBytes + o.shuffleReadBytes)
}

/** Counts jobs, submitted stages and finished tasks per job group. */
final class WorkListener extends SparkListener {
  private val byGroup = mutable.Map.empty[String, Work].withDefaultValue(Work())
  private val stageGroup = mutable.Map.empty[Int, String]

  private def group(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")

  private def add(g: String, w: Work): Unit = synchronized { byGroup(g) = byGroup(g) + w }

  override def onJobStart(e: SparkListenerJobStart): Unit =
    add(group(e.properties), Work(jobs = 1))

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val g = group(e.properties)
    synchronized { stageGroup(e.stageInfo.stageId) = g }
    add(g, Work(stages = 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = synchronized { stageGroup.getOrElse(e.stageId, "") }
    val m = e.taskMetrics
    add(g, if (m == null) Work(tasks = 1) else Work(tasks = 1,
      busyMs = m.executorRunTime, gcMs = m.jvmGCTime,
      shuffleReadBytes = m.shuffleReadMetrics.totalBytesRead))
  }

  /** Work of `group`, after every event posted so far has been delivered. */
  def work(sc: SparkContext, group: String): Work = {
    ListenerDrain(sc)
    synchronized { byGroup(group) }
  }
}

/** One traced call: name, start/end (ns, monotonic), the span that caused
  * it (-1 for none) and the run it belongs to.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      runId: String, work: Work) {
  def wallS: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory. Each span runs its body under a job group
  * named after the span id, so [[WorkListener]] attributes every Spark job
  * the body starts to exactly one span. Spans nest: a child's jobs are
  * not counted in its parent.
  */
final class Tracer(sc: SparkContext, runId: String, listener: WorkListener) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 0

  def spans: Seq[Span] = done.toSeq

  def span[T](name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    sc.setJobGroup(id.toString, name)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      stack.headOption match {
        case Some(p) => sc.setJobGroup(p.toString, "")
        case None => sc.clearJobGroup()
      }
      done += Span(id, parent, name, t0, t1, runId, listener.work(sc, id.toString))
    }
  }
}
