package repro.core

import org.apache.spark.sql.functions.{array_repeat, lit, when}
import repro.SparkSpec
import repro.exp.Experiments
import repro.ml.{CommCNN, GBDT, LogisticRegression}
import repro.wechat.RelationType

/** `LoCEC.divide` (Phase I + Phase II features) and `LoCEC.label` on
  * degenerate inputs and training-label contracts, and their independence
  * from the shuffle-partition count. */
class LoCECDivideSpec extends SparkSpec {
  import spark.implicits._

  private val p = LoCEC.Params()

  private val small = LoCEC.Params(gbdt = GBDT.Params(numRounds = 5),
    cnn = CommCNN.Config(filters = 2, hidden = 8, epochs = 2),
    lr = LogisticRegression.Params(epochs = 100))

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private lazy val st = {
    val s = Experiments.setup(spark, numUsers = 300, seed = 7)
    s.edges.count(); s.interactions.count()
    s
  }

  private lazy val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, p)

  private def noInteractions =
    Seq.empty[(Long, Long, Seq[Double])].toDF("src", "dst", "inter")

  test("an empty trainEdges set fails with a clear error") {
    val edges = Seq((1L, 2L), (1L, 3L), (2L, 3L)).toDF("src", "dst")
    val e = intercept[IllegalArgumentException] {
      LoCEC.run(spark, edges, noInteractions, Map.empty[Long, Array[Double]],
        Seq.empty[(Long, Long, String)].toDF("src", "dst", "label"))
    }
    assert(e.getMessage.contains("no labeled communities"), e.getMessage)
  }

  test("an ego with one friend gets a singleton community and a one-row matrix") {
    // ego 1's only friend is 2
    val edges = Seq((1L, 2L), (2L, 3L), (2L, 4L), (3L, 4L)).toDF("src", "dst")
    val userF: Map[Long, Array[Double]] = (1L to 4L).map(u => u -> Array(u.toDouble, 0.5)).toMap
    val pre = LoCEC.divide(spark, edges, noInteractions, userF, p)

    val assigns = pre.assigns.where($"ego" === 1L).collect()
    assert(assigns.length == 1)
    val a = assigns.head
    assert(a.friend == 2L && a.tightness == 1.0)

    val feats = pre.commFeats.where($"ego" === 1L).collect()
    assert(feats.length == 1)
    val cf = feats.head
    assert(cf.members.toSeq == Seq(2L) && cf.tightness.toSeq == Seq(1.0))
    assert(cf.flat.take(cf.cols).toSeq == Seq.fill(p.interDims)(0.0) ++ Seq(2.0, 0.5))
    assert(cf.flat.drop(cf.cols).forall(_ == 0.0))
  }

  test("all-zero interactions give all-zero interaction columns, never NaN") {
    val zeros = st.edges.select($"src", $"dst", array_repeat(lit(0.0), p.interDims) as "inter")
    val feats = LoCEC.divide(spark, st.edges, zeros, st.userFeatures, p).commFeats.collect()
    assert(feats.exists(_.members.length > 1))
    feats.foreach { cf =>
      assert(!cf.flat.exists(_.isNaN), (cf.ego, cf.comm))
      for (r <- 0 until cf.rows; j <- 0 until p.interDims)
        assert(cf.flat(r * cf.cols + j) == 0.0, (cf.ego, cf.comm, r, j))
    }
  }

  test("divide is identical under 1, 8 and 64 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def divideWith(partitions: Int): (Seq[EgoAssign], Seq[CommFeat]) = {
      spark.conf.set(key, partitions.toString)
      val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, p)
      val out = (pre.assigns.collect().sortBy(a => (a.ego, a.friend)).toSeq,
                 pre.commFeats.collect().sortBy(c => (c.ego, c.comm)).toSeq)
      // so the second run cannot read the first run's cached plans
      pre.assigns.unpersist(blocking = true)
      pre.commFeats.unpersist(blocking = true)
      out
    }
    try {
      val (a1, c1) = divideWith(1)
      Seq(8, 64).foreach { n =>
        val (an, cn) = divideWith(n)
        assert(a1.nonEmpty && a1 == an, n)
        assert(c1.length == cn.length, n)
        c1.zip(cn).foreach { case (x, y) =>
          val id = (n, x.ego, x.comm)
          assert((x.ego, x.comm, x.rows, x.cols) == (y.ego, y.comm, y.rows, y.cols), id)
          assert(x.members.toSeq == y.members.toSeq, id)
          assert(bits(x.tightness) == bits(y.tightness), id)
          assert(bits(x.flat) == bits(y.flat), id)
        }
      }
    } finally spark.conf.set(key, saved)
  }

  test("label (Xgb, Cnn) is identical under 1, 8 and 64 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def labelWith(v: LoCEC.Variant, partitions: Int): (Seq[((Long, Int), Seq[Long])], Seq[(Long, Long, String)]) = {
      spark.conf.set(key, partitions.toString)
      val r = LoCEC.label(spark, pre, st.trainEdges, st.edges.select("src", "dst"),
        small.copy(variant = v))
      val out = (r.commPreds.collect().map(c => (c.ego, c.comm) -> bits(c.probs)).sortBy(_._1).toSeq,
                 r.edgePreds.select("src", "dst", "pred").as[(Long, Long, String)].collect()
                   .sortBy(e => (e._1, e._2)).toSeq)
      // so the next run cannot read this run's cached plans
      r.commPreds.unpersist(blocking = true)
      r.edgePreds.unpersist(blocking = true)
      out
    }
    try {
      Seq(LoCEC.Xgb, LoCEC.Cnn).foreach { v =>
        val (c1, e1) = labelWith(v, 1)
        assert(c1.nonEmpty && e1.length == st.edges.count(), v)
        Seq(8, 64).foreach { n =>
          val (cn, en) = labelWith(v, n)
          assert(c1 == cn, (v, n))
          assert(e1 == en, (v, n))
        }
      }
    } finally spark.conf.set(key, saved)
  }

  /** Row count and SHA-256 of `rows`, one line each, in order. */
  private def digest(rows: Seq[String]): (Int, String) = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    rows.foreach(r => md.update((r + "\n").getBytes("UTF-8")))
    (rows.length, md.digest().map(b => f"$b%02x").mkString)
  }

  test("label (Xgb, Cnn) gives the recorded commPreds.probs and edgePreds bits") {
    // Recorded before CommCNN read CommFeat.flat in place and the ML layer
    // shared one softmax: reshaping the inputs must not move a bit.
    val want = Map[LoCEC.Variant, ((Int, String), (Int, String))](
      LoCEC.Xgb -> ((1332, "08c74178bdb886726bf0ae37f489c6547be9279ba45f15ca2bb54f1655d7ef5f"),
                    (2281, "71650bc37cdd38522a5b15a01526b83678ec4445355c5daa638151036490ee3c")),
      LoCEC.Cnn -> ((1332, "d6c086febf6f713002f00cec3b0556bf895bdf355e8994617f9e030385a6178d"),
                    (2281, "4198a2bf885846b22a4f0988a13c0573e8dc4d1f5432225a265deb0227e3fb52")))
    Seq(LoCEC.Xgb, LoCEC.Cnn).foreach { v =>
      val r = LoCEC.label(spark, pre, st.trainEdges, st.edges.select("src", "dst"),
        small.copy(variant = v))
      val comms = r.commPreds.collect().sortBy(c => (c.ego, c.comm))
        .map(c => s"${c.ego} ${c.comm} ${bits(c.probs).mkString(" ")}")
      val edges = r.edgePreds.select("src", "dst", "pred").as[(Long, Long, String)].collect()
        .sortBy(e => (e._1, e._2)).map { case (s, d, l) => s"$s $d $l" }
      r.commPreds.unpersist(blocking = true)
      r.edgePreds.unpersist(blocking = true)
      assert((digest(comms.toSeq), digest(edges.toSeq)) == want(v), v)
    }
  }

  test("training labels outside RelationType.Major fail with a clear error") {
    val relabeled = st.trainEdges.withColumn("label",
      when($"src" % 3 === 0, lit(RelationType.Other)).otherwise($"label"))
    val e = intercept[IllegalArgumentException] {
      LoCEC.label(spark, pre, relabeled, st.testEdges.select("src", "dst"),
        small.copy(variant = LoCEC.Xgb))
    }
    assert(e.getMessage.matches(
      "(?s).*\\d+ labeled (communities|edges) have labels outside RelationType.Major.*: other"),
      e.getMessage)
  }

  test("null training labels fail with their count before any training") {
    val nulled = st.trainEdges.withColumn("label",
      when($"src" % 3 === 0, lit(null).cast("string")).otherwise($"label"))
    val expected = st.trainEdges.where($"src" % 3 === 0).count()
    assert(expected > 1)
    val e = intercept[IllegalArgumentException] {
      LoCEC.label(spark, pre, nulled, st.testEdges.select("src", "dst"),
        small.copy(variant = LoCEC.Xgb))
    }
    assert(e.getMessage.contains(s"$expected labeled edges have a null label"), e.getMessage)
  }

  test("the RelationType.Major check names a null label beside other bad labels") {
    val e = intercept[IllegalArgumentException] {
      LoCEC.requireMajor("labeled edges", Seq(RelationType.Family, null, RelationType.Other, null))
    }
    assert(e.getMessage.endsWith("3 labeled edges have labels outside RelationType.Major " +
      "(colleague, family, schoolmate): null, other"), e.getMessage)
  }

  test("single-class training labels give every target edge that class") {
    val oneClass = st.trainEdges.withColumn("label", lit(RelationType.Family))
    val target = st.testEdges.select("src", "dst")
    Seq(LoCEC.Xgb, LoCEC.Cnn).foreach { v =>
      val r = LoCEC.run(spark, st.edges, st.interactions, st.userFeatures, oneClass,
        small.copy(variant = v), Some(target))
      val preds = r.edgePreds.select("pred").as[String].collect()
      assert(preds.length == target.count(), v)
      assert(preds.forall(_ == RelationType.Family), (v, preds.distinct.toSeq))
    }
  }

  private def divideFailure(edges: Seq[(Long, Long)]): String = {
    val e = intercept[Exception] {
      LoCEC.divide(spark, edges.toDF("src", "dst"), noInteractions, Map.empty[Long, Array[Double]], p)
    }
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
    assert(cause.isDefined, e)
    cause.get.getMessage
  }

  test("divide rejects a user-feature vector of the wrong width, naming the user and both widths") {
    val edges = Seq((1L, 2L), (1L, 3L), (2L, 3L)).toDF("src", "dst")
    val ok = (1L to 3L).map(u => u -> Array.fill(p.featDims)(u.toDouble)).toMap
    Seq(p.featDims + 1, p.featDims - 1).foreach { w =>
      val e = intercept[IllegalArgumentException] {
        LoCEC.divide(spark, edges, noInteractions, ok.updated(2L, Array.fill(w)(1.0)), p)
      }
      val want = s"user 2 has a feature vector of width $w, expected featDims = ${p.featDims}"
      assert(e.getMessage.contains(want), e.getMessage)
    }
  }

  test("divide rejects a self-loop and names it") {
    val msg = divideFailure(Seq((1L, 2L), (2L, 3L), (3L, 3L)))
    assert(msg.contains("self-loop (3, 3)"), msg)
  }

  test("divide rejects an edge with src > dst and names it") {
    val msg = divideFailure(Seq((1L, 2L), (3L, 2L), (1L, 3L)))
    assert(msg.contains("edge (3, 2) is not canonical"), msg)
  }

  test("divide rejects a duplicate edge and names it") {
    val msg = divideFailure(Seq((1L, 2L), (2L, 3L), (1L, 3L), (2L, 3L)))
    assert(msg.contains("duplicate edge (2, 3)"), msg)
  }

  // clears the whole cache, so it runs last
  test("label leaves nothing cached beyond the four Result Datasets") {
    spark.catalog.clearCache()
    val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, p)
    val r = LoCEC.label(spark, pre, st.trainEdges, st.testEdges.select("src", "dst"),
      small.copy(variant = LoCEC.Xgb))
    Seq(r.assigns, r.commFeats, r.commPreds, r.edgePreds).foreach(_.unpersist(blocking = true))
    assert(spark.sharedState.cacheManager.isEmpty)
  }
}
