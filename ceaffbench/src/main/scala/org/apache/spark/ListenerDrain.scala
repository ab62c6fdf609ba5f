package org.apache.spark

/** Waits until every event posted so far has reached every listener.
  *
  * Listener delivery is asynchronous: job/task counters and the storage
  * sizes behind `SparkContext.getRDDStorageInfo` lag the jobs that caused
  * them. The benchmark reads both right after a pass, so it drains the
  * bus first. `listenerBus` is `private[spark]`, hence this package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
