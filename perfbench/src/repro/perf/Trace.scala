package repro.perf

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed region: name, start/end in seconds since the tracer started,
  * and the index of the span that contains it (-1 for a root). */
final case class Span(name: String, parent: Int, start: Double, end: Double) {
  def seconds: Double = end - start
}

/** Task totals of one job group; skew is that of its heaviest stage. */
final case class GroupStats(tasks: Int, taskSeconds: Double, shuffleReadMb: Double,
                            shuffleWriteMb: Double, skew: Double)

/** Per-stage task figures, keyed by the job group of the span that ran it. */
final class StageListener extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  /** group → stage → (task run times in s, shuffle read bytes, shuffle write bytes) */
  private val tasks = mutable.Map.empty[String, mutable.Map[Int, (mutable.ArrayBuffer[Double], Long, Long)]]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.foreach(g => e.stageIds.foreach(s => stageGroup(s) = g))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    stageGroup.get(e.stageId).filter(_ => m != null).foreach { g =>
      val stages = tasks.getOrElseUpdate(g, mutable.Map.empty)
      val (times, rd, wr) = stages.getOrElse(e.stageId, (mutable.ArrayBuffer.empty[Double], 0L, 0L))
      times += m.executorRunTime / 1000.0
      stages(e.stageId) = (times, rd + m.shuffleReadMetrics.totalBytesRead,
        wr + m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def stats(group: String): GroupStats = synchronized {
    val stages = tasks.getOrElse(group, mutable.Map.empty).values.toSeq
    if (stages.isEmpty) GroupStats(0, 0, 0, 0, 1.0)
    else {
      val heaviest = stages.maxBy(_._1.sum)._1.toSeq
      GroupStats(stages.map(_._1.size).sum, stages.map(_._1.sum).sum,
        stages.map(_._2).sum / 1e6, stages.map(_._3).sum / 1e6, Stats.skew(heaviest))
    }
  }

  def reset(): Unit = synchronized { stageGroup.clear(); tasks.clear() }
}

/** Spans kept in memory for one traced pipeline. A span that runs Spark
  * work tags its jobs with its own name as the job group, so the
  * [[StageListener]] can attribute tasks to it. */
final class Tracer(sc: SparkContext) {
  private val t0 = System.nanoTime()
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int] // enclosing spans, innermost first

  private def now: Double = (System.nanoTime() - t0) / 1e9

  def span[T](name: String, spark: Boolean = false)(body: => T): T = {
    val parent = open.headOption.getOrElse(-1)
    val id = done.length
    done += null // reserve the slot so children see this span's index
    val start = now
    open = id :: open
    if (spark) sc.setJobGroup(name, name)
    try body
    finally {
      if (spark) sc.clearJobGroup()
      done(id) = Span(name, parent, start, now)
      open = open.tail
    }
  }

  def seconds(name: String): Double = done.find(_.name == name).map(_.seconds)
    .getOrElse(throw new NoSuchElementException(s"no span $name"))

  def selfSeconds(i: Int): Double = {
    val s = done(i)
    Stats.selfTime(s.start, s.end, done.filter(_.parent == i).map(c => (c.start, c.end)).toSeq)
  }

  def toJson: String = done.indices.map { i =>
    val s = done(i)
    f"""{"name": "${s.name}", "parent": ${s.parent}, "start_s": ${s.start}%.6f, "end_s": ${s.end}%.6f, "self_s": ${selfSeconds(i)}%.6f}"""
  }.mkString("[\n  ", ",\n  ", "\n]")
}

object Trace {
  /** Wait until the listener has seen every event posted so far. */
  def drain(sc: SparkContext): Unit = ListenerDrain(sc)

  /** Total GC time of the JVM so far, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1000.0

  /** Time the JIT compilers have spent so far, in seconds. */
  def jitSeconds: Double = ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1000.0

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since the last reset, in MB. */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1e6

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(p => p.getType == MemoryType.HEAP && p.isValid)
}
