package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts.
  *
  * Listener delivery is asynchronous, so the bus is drained before the
  * block (late events of earlier work) and after it (its own events).
  * `listenerBus` is `private[spark]`, hence this package.
  */
object JobCount {
  def apply[A](sc: SparkContext)(body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
