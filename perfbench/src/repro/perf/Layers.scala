package repro.perf

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{EgoNetworks, LocalCommunities, LoCEC}
import repro.exp.Experiments
import scala.util.Random

/** Per-layer counts and replays, taken after the timed spans from the
  * traced pipeline's persisted outputs, so they add nothing to any span. */
object Layers {

  /** Egos whose Girvan–Newman run is replayed on the driver. */
  val GnReplays = 200
  /** Communities whose classifier forward pass is timed on the driver. */
  val ForwardSamples = 2000

  def counts(spark: SparkSession, st: Experiments.Setup, t: Pipeline.Traced,
             p: LoCEC.Params, seed: Long): Map[String, Double] = {
    import spark.implicits._
    val degrees = EgoNetworks.egoMembers(spark, st.edges).groupBy("ego").count()
      .as[(Long, Long)].collect().sortBy(_._1)
    val size = Stats.dist(degrees.map(_._2.toDouble).toSeq)
    val wedges = Stats.wedges(degrees.map(_._2))
    val innerRows = t.counts("ego.inner_rows")

    // Phase II's buildForEgo scans every inner pair of an ego once per
    // community; a scan is useful when both ends sit in that community.
    val a = t.assigns.select($"ego", $"friend", $"comm")
    val commsPerEgo = t.assigns.groupBy("ego").agg(countDistinct("comm") as "nc")
    val innerPerEgo = t.inner.groupBy("ego").agg(count(lit(1)) as "ni")
    val pairScans = commsPerEgo.join(innerPerEgo, "ego")
      .agg(sum($"nc" * $"ni")).as[Option[Long]].head().getOrElse(0L)
    val usefulScans = t.inner
      .join(a.select($"ego", $"friend" as "a", $"comm" as "ca"), Seq("ego", "a"))
      .join(a.select($"ego", $"friend" as "b", $"comm" as "cb"), Seq("ego", "b"))
      .where($"ca" === $"cb").count()
    val gnCommunities = t.assigns.select("ego", "comm").distinct().count()
    val edgesIn = t.edgesIn.count()

    val labeledEdges = st.trainEdges.count() + st.testEdges.count()

    t.counts ++ Map(
      "wechat.edges" -> st.edges.count().toDouble,
      "wechat.labeled_edges" -> labeledEdges.toDouble,
      "ego.members_rows" -> degrees.map(_._2).sum.toDouble,
      "ego.egos" -> size.n.toDouble,
      "ego.size_p50" -> size.p50, "ego.size_tail" -> size.tail,
      "ego.size_tail_pct" -> size.tailPct, "ego.size_max" -> size.max,
      "ego.wedges" -> wedges.toDouble,
      "ego.close_ratio" -> innerRows / math.max(wedges, 1L),
      "gn.communities" -> gnCommunities.toDouble,
      "feat.pair_scans" -> pairScans.toDouble,
      "feat.pair_scan_ratio" -> usefulScans.toDouble / math.max(pairScans, 1L),
      "train.samples" -> t.samples.length.toDouble,
      "train.loss" -> meanLoss(t),
      "e3.edges_in" -> edgesIn.toDouble,
      "e3.dropped" -> (edgesIn - t.counts("e3.rows_out")),
      "e3.lr_samples" -> t.lrSamples.toDouble
    ) ++ gnReplays(spark, st, t, p, degrees.map(_._1), seed) ++ forwardTimes(spark, t)
  }

  /** Mean cross-entropy of the trained community model on its own training
    * samples (for CommCNN this is `CommCNN.meanLoss`). */
  private def meanLoss(t: Pipeline.Traced): Double = {
    val idx = t.model.classes.zipWithIndex.toMap
    t.samples.map { case (cf, label) =>
      -math.log(math.max(t.model.predictProba(cf)(idx(label)), 1e-12))
    }.sum / t.samples.length
  }

  /** Replay `LocalCommunities.detectOne` on a seeded sample of the
    * workload's own egos and time each run. */
  private def gnReplays(spark: SparkSession, st: Experiments.Setup, t: Pipeline.Traced,
                        p: LoCEC.Params, egos: Array[Long], seed: Long): Map[String, Double] = {
    import spark.implicits._
    val sample = new Random(seed).shuffle(egos.toSeq).take(GnReplays).sorted
    val members = EgoNetworks.egoMembers(spark, st.edges).where($"ego".isin(sample: _*))
      .as[(Long, Long)].collect().groupBy(_._1)
    val inner = t.inner.where($"ego".isin(sample: _*)).select("ego", "a", "b")
      .as[(Long, Long, Long)].collect().groupBy(_._1)
    val ms = sample.map { ego =>
      val friends = members(ego).map(_._2)
      val edges = inner.getOrElse(ego, Array.empty).map(r => (r._2, r._3)).toSeq
      val t0 = System.nanoTime()
      LocalCommunities.detectOne(ego, friends, edges, p.gnPatienceFrac)
      (System.nanoTime() - t0) / 1e6
    }
    val d = Stats.dist(ms)
    Map("gn.ego_replays" -> d.n.toDouble, "gn.ego_ms_p50" -> d.p50, "gn.ego_ms_tail" -> d.tail,
      "gn.ego_ms_tail_pct" -> d.tailPct, "gn.ego_ms_max" -> d.max)
  }

  /** Time the community model's forward pass (CommCNN or GBDT) on the
    * first communities by (ego, comm), after a short warm loop. */
  private def forwardTimes(spark: SparkSession, t: Pipeline.Traced): Map[String, Double] = {
    val feats = t.commFeats.orderBy("ego", "comm").take(ForwardSamples)
    feats.take(200).foreach(t.model.predictProba)
    val us = feats.toSeq.map { cf =>
      val t0 = System.nanoTime()
      t.model.predictProba(cf)
      (System.nanoTime() - t0) / 1e3
    }
    val d = Stats.dist(us)
    Map("cls.fwd_samples" -> d.n.toDouble, "cls.fwd_us_p50" -> d.p50,
      "cls.fwd_us_tail" -> d.tail, "cls.fwd_us_tail_pct" -> d.tailPct)
  }
}
