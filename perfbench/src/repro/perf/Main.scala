package repro.perf

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.LoCEC
import repro.wechat.SocialGen
import scala.collection.mutable

/** LoCEC benchmark entry point.
  *
  *   repro.perf.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *
  * Load model: one closed-loop client runs one pipeline at a time in this
  * JVM on Spark local[*]. `--trace 0` times repetitions of `LoCEC.run` and
  * prints the end-to-end metrics; `--trace 1` runs the same inputs through
  * each layer's public function under spans and prints the per-layer
  * metrics. The last stdout line is the JSON result. */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]) {
    def json: String = {
      metrics.foreach(m => require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}"))
      val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  /** Inputs each untraced run generates before it times the pipeline; the
    * median of these is `setup_s`. */
  val SetupRepeats = 3
  /** Size and count of the discarded warm-up graphs. Spark keeps planning
    * and generating code for every query, so the JIT is still busy after
    * one warm-up pipeline; after two, the first timed repetition is close
    * to the later ones. */
  val WarmUpUsers = 300
  val WarmUpPasses = 2

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.exit(code)
  }

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case v   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $v")
    }
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, trace, need("out"))
  }

  def run(o: Opts): Unit = {
    SelfTest.run()
    val w = Workloads.byName(o.workload)
    val spark = SparkSession.builder()
      .master("local[*]")
      .appName(s"locec-perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(o.out, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(o.out, "warehouse").toAbsolutePath.toString)
      .getOrCreate()
    try {
      progress("session up")
      val r = if (o.trace) traced(spark, w, o) else untraced(spark, w, o)
      println(r.json)
    } finally spark.stop()
  }

  private def now: Double = System.nanoTime() / 1e9
  private val born = now
  private def progress(msg: String): Unit = Console.err.println(f"[${now - born}%7.2f s] $msg")

  /** Drop every Dataset the previous repetition persisted, so Spark's
    * CacheManager cannot substitute cached data into the next run's plans. */
  private def fresh(spark: SparkSession): Unit = {
    spark.catalog.clearCache()
    require(spark.sharedState.cacheManager.isEmpty, "cache not empty after clearCache")
  }

  /** The driver heap must come from the machine, not a fixed default. */
  private def heapProblems: Seq[String] = {
    val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
    val heap = Runtime.getRuntime.maxMemory
    if (heap < os.getTotalMemorySize) Nil
    else Seq(s"driver heap ${heap >> 20} MB is not below machine memory ${os.getTotalMemorySize >> 20} MB")
  }

  /** JIT and codegen warm-up on a small default graph, run through the same
    * calls as the measured repetitions. Its results are discarded. */
  private def warmUp(spark: SparkSession, w: Workload, seed: Long, traced: Boolean): Unit = {
    (1 to WarmUpPasses).foreach { i =>
      fresh(spark)
      val st = Workloads.setup(spark, SocialGen.Config(numUsers = WarmUpUsers, seed = seed + i))
      val in = Workloads.driverCopies(spark, st)
      Checks(spark, LoCEC.run(spark, st.edges, st.interactions, st.userFeatures, st.trainEdges,
        w.params).edgePreds, in)
      if (traced) {
        fresh(spark)
        Pipeline.run(spark, new Tracer(spark.sparkContext), st, w.params)
      }
      progress(s"warm-up pass $i done")
    }
    progress("warm-up done")
  }

  final case class Rep(total: Double, t: LoCEC.Timings, c: Checked)

  private def timedRun(spark: SparkSession, w: Workload, in: Workloads.Inputs): Rep = {
    val st = in.setup
    val gc0 = Trace.gcSeconds
    val jit0 = Trace.jitSeconds
    val t0 = now
    val res = LoCEC.run(spark, st.edges, st.interactions, st.userFeatures, st.trainEdges, w.params)
    val total = now - t0
    val gc = Trace.gcSeconds - gc0
    val jit = Trace.jitSeconds - jit0
    val rep = Rep(total, res.timings, Checks(spark, res.edgePreds, in))
    val t = res.timings
    progress(f"pipeline $total%.2f s (train ${t.trainingSec}%.2f, I ${t.phase1Sec}%.2f, " +
      f"II ${t.phase2Sec}%.2f, III ${t.phase3Sec}%.2f), GC $gc%.2f s, JIT $jit%.2f s, F1 ${rep.c.f1}%.4f")
    rep
  }

  private def problemsOf(reps: Seq[Checked]): Seq[String] =
    reps.flatMap(_.problems).distinct ++
      (if (reps.map(_.f1).distinct.size > 1)
         Seq(s"edge F1 differs across repetitions of one seed: ${reps.map(_.f1).mkString(", ")}")
       else Nil)

  def untraced(spark: SparkSession, w: Workload, o: Opts): Result = {
    warmUp(spark, w, o.seed, traced = false)
    val setupTimes = mutable.ArrayBuffer.empty[Double]
    def setupOnce(): Workloads.Inputs = {
      fresh(spark)
      val t0 = now
      val st = Workloads.setup(spark, w.config(o.seed))
      setupTimes += now - t0
      Workloads.driverCopies(spark, st)
    }
    val start = now
    var in = (1 to SetupRepeats).map(_ => setupOnce()).last
    val reps = mutable.ArrayBuffer(timedRun(spark, w, in))
    while (now - start < o.seconds) {
      in = setupOnce()
      reps += timedRun(spark, w, in)
    }
    val problems = problemsOf(reps.map(_.c).toSeq) ++ heapProblems
    problems.foreach(p => Console.err.println(s"CHECK FAILED: $p"))
    def med(f: Rep => Double) = Stats.median(reps.map(f).toSeq)
    Console.err.println(f"${w.name}: ${reps.size} repetitions, ${setupTimes.size} setups")
    Result(problems.isEmpty,
      attempted = reps.map(_.c.targets.toLong).sum,
      failed = reps.map(_.c.missing.toLong).sum,
      Seq(
        Metric("setup_s", Stats.median(setupTimes.toSeq), "s"),
        Metric("total_s", med(_.total), "s"),
        Metric("edges_per_s", med(r => (r.c.targets - r.c.missing) / r.total), "edges/s"),
        Metric("train_s", med(_.t.trainingSec), "s"),
        Metric("phase1_s", med(_.t.phase1Sec), "s"),
        Metric("phase2_s", med(_.t.phase2Sec), "s"),
        Metric("phase3_s", med(_.t.phase3Sec), "s"),
        Metric("edge_f1", reps.head.c.f1, "f1"),
        Metric("edge_cover_frac", med(r => 1.0 - r.c.missing.toDouble / r.c.targets), "frac")))
  }

  /** Spans whose Spark stage metrics are reported, one set each. */
  val SparkSpans = Seq("ego.inner", "gn.detect", "feat.compute", "train.collect",
    "cls.classify", "e3.features", "e3.predict")

  /** Per-layer metrics printed in the result line, with units: the ones an
    * optimization can move. */
  val LayerUnits: Seq[(String, String)] = Seq(
    "wechat.generate_s" -> "s", "ego.inner_s" -> "s",
    "gn.detect_s" -> "s", "gn.ego_ms_p50" -> "ms", "gn.ego_ms_tail" -> "ms", "gn.ego_ms_max" -> "ms",
    "feat.compute_s" -> "s", "feat.labels_s" -> "s",
    "train.collect_s" -> "s", "train.fit_s" -> "s", "train.sample_passes_per_s" -> "1/s",
    "train.loss" -> "nats",
    "cls.classify_s" -> "s", "cls.comms_per_s" -> "1/s", "cls.fwd_us_p50" -> "us",
    "cls.fwd_us_tail" -> "us",
    "e3.features_s" -> "s", "e3.lr_fit_s" -> "s", "e3.predict_s" -> "s") ++
    SparkSpans.flatMap(s => Seq(s"spark.$s.task_s" -> "s", s"spark.$s.shuffle_read_mb" -> "MB",
      s"spark.$s.shuffle_write_mb" -> "MB", s"spark.$s.skew" -> "ratio",
      s"spark.$s.busy_frac" -> "frac")) ++
    Seq("jvm.gc_s" -> "s", "jvm.jit_s" -> "s", "jvm.heap_peak_mb" -> "MB",
      "trace.overhead_frac" -> "frac")

  /** Per-layer counts that describe the work a workload's inputs imply:
    * written to the trace file only, since no optimization moves them. */
  val ShapeUnits: Seq[(String, String)] = Seq(
    "wechat.edges" -> "count", "wechat.labeled_edges" -> "count",
    "ego.members_rows" -> "count", "ego.egos" -> "count",
    "ego.size_p50" -> "nodes", "ego.size_tail" -> "nodes", "ego.size_tail_pct" -> "pct",
    "ego.size_max" -> "nodes", "ego.wedges" -> "count", "ego.inner_rows" -> "count",
    "ego.close_ratio" -> "ratio",
    "gn.assign_rows" -> "count", "gn.communities" -> "count", "gn.ego_replays" -> "count",
    "gn.ego_ms_tail_pct" -> "pct",
    "feat.communities" -> "count", "feat.pair_scans" -> "count", "feat.pair_scan_ratio" -> "ratio",
    "feat.labeled_comms" -> "count",
    "train.samples" -> "count", "cls.fwd_samples" -> "count", "cls.fwd_us_tail_pct" -> "pct",
    "e3.edges_in" -> "count", "e3.rows_out" -> "count", "e3.dropped" -> "count",
    "e3.lr_samples" -> "count")

  def traced(spark: SparkSession, w: Workload, o: Opts): Result = {
    val sc = spark.sparkContext
    val listener = new StageListener
    sc.addSparkListener(listener)
    warmUp(spark, w, o.seed, traced = true)

    val perPair = mutable.ArrayBuffer.empty[Map[String, Double]]
    val checked = mutable.ArrayBuffer.empty[Checked]
    val problems = mutable.ArrayBuffer.empty[String]
    var last: (Tracer, Workloads.Inputs, Pipeline.Traced) = null
    val start = now
    do {
      // untraced reference run on the same inputs
      fresh(spark)
      val ref = timedRun(spark, w, Workloads.driverCopies(spark, Workloads.setup(spark, w.config(o.seed))))

      fresh(spark)
      Trace.drain(sc)
      listener.reset()
      val tr = new Tracer(sc)
      val gc0 = Trace.gcSeconds
      val jit0 = Trace.jitSeconds
      Trace.resetHeapPeak()
      val st = tr.span("wechat.generate") { Workloads.setup(spark, w.config(o.seed)) }
      val t = Pipeline.run(spark, tr, st, w.params)
      val gc = Trace.gcSeconds - gc0
      val jit = Trace.jitSeconds - jit0
      val heapPeak = Trace.heapPeakMb
      Trace.drain(sc)

      val in = Workloads.driverCopies(spark, st)
      val c = Checks(spark, t.edgePreds, in)
      checked ++= Seq(ref.c, c)
      if (!ref.c.preds.sameElements(c.preds))
        problems += "traced predictions differ from the untraced run's"
      Seq("ego.inner", "gn.detect").foreach { s =>
        if (listener.stats(s).tasks == 0) problems += s"span $s ran no Spark tasks (cached plan?)"
      }

      val cores = sc.defaultParallelism
      val stages = SparkSpans.flatMap { s =>
        val g = listener.stats(s)
        Seq(s"spark.$s.task_s" -> g.taskSeconds, s"spark.$s.shuffle_read_mb" -> g.shuffleReadMb,
          s"spark.$s.shuffle_write_mb" -> g.shuffleWriteMb, s"spark.$s.skew" -> g.skew,
          s"spark.$s.busy_frac" -> g.taskSeconds / (tr.seconds(s) * cores))
      }
      val spans = Seq("wechat.generate", "ego.inner", "gn.detect", "feat.compute", "feat.labels",
        "train.collect", "train.fit", "cls.classify", "e3.features", "e3.lr_fit", "e3.predict")
        .map(s => s"${s}_s" -> tr.seconds(s))
      perPair += (spans ++ stages ++ Seq(
        "jvm.gc_s" -> gc, "jvm.jit_s" -> jit, "jvm.heap_peak_mb" -> heapPeak,
        "trace.overhead_frac" -> (tr.seconds("pipeline") - ref.total) / ref.total)).toMap
      last = (tr, in, t)
    } while (now - start < o.seconds)

    val (tr, in, t) = last
    val counts = Layers.counts(spark, in.setup, t, w.params, o.seed)
    if (counts("gn.communities") != counts("feat.communities"))
      problems += s"${counts("gn.communities")} communities detected but ${counts("feat.communities")} featurized"
    problems ++= problemsOf(checked.toSeq) ++ heapProblems
    problems.foreach(p => Console.err.println(s"CHECK FAILED: $p"))

    val timed = perPair.head.keys.map(k => k -> Stats.median(perPair.map(_(k)).toSeq)).toMap
    val passes = w.variant match {
      case LoCEC.Cnn => w.params.cnn.epochs
      case LoCEC.Xgb => w.params.gbdt.numRounds
    }
    val all = timed ++ counts ++ Map(
      "train.sample_passes_per_s" -> counts("train.samples") * passes / timed("train.fit_s"),
      "cls.comms_per_s" -> counts("feat.communities") / timed("cls.classify_s"))

    val dir = Paths.get(o.out, "trace")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${w.name}-seed${o.seed}.json")
    val metricsJson = (LayerUnits ++ ShapeUnits).map { case (k, u) => s""""$k": {"value": ${all(k)}, "unit": "$u"}""" }
    Files.writeString(file,
      s"""{"workload": "${w.name}", "seed": ${o.seed}, "pairs": ${perPair.size},
         |"spans": ${tr.toJson},
         |"metrics": {${metricsJson.mkString(",\n  ")}}}
         |""".stripMargin)
    Console.err.println(s"${w.name}: ${perPair.size} traced pairs; spans in $file")
    Result(problems.isEmpty,
      attempted = checked.map(_.targets.toLong).sum,
      failed = checked.map(_.missing.toLong).sum,
      LayerUnits.map { case (k, u) => Metric(k, all(k), u) })
  }
}
