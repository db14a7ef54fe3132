package org.apache.spark

/** Spark delivers listener events on a background thread; the benchmark
  * must see every task of a span before it reads the span's stage metrics.
  * `waitUntilEmpty` is package-private, hence this one-line bridge. */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
