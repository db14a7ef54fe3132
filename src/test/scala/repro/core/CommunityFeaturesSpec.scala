package repro.core

import repro.SparkSpec
import repro.wechat.RelationType

class CommunityFeaturesSpec extends SparkSpec {
  import spark.implicits._

  private val interDims = 2
  private val featDims = 1

  test("interact (Eq. 1) divides user sums by the community total") {
    val f = CommunityFeatures.interact(Array(2.0, 0.0), Array(8.0, 0.0))
    assert(f.toSeq == Seq(0.25, 0.0))
  }

  test("interact with a silent dimension yields 0, not NaN") {
    val f = CommunityFeatures.interact(Array(5.0), Array(0.0))
    assert(f.toSeq == Seq(0.0))
  }

  private def fig7Assigns: Seq[EgoAssign] =
    LocalCommunities.detectOne(1L, Array(2L, 3L, 4L, 5L, 6L),
      Seq((2L, 3L), (2L, 4L), (3L, 4L), (5L, 6L), (4L, 6L)))

  test("buildForEgo produces one matrix per community") {
    val feats = CommunityFeatures.buildForEgo(1L, fig7Assigns, Map.empty,
      _ => Array(0.0), k = 4, interDims = interDims, featDims = featDims)
    assert(feats.length == 2)
    assert(feats.map(_.members.length).sorted.toSeq == Seq(2, 3))
  }

  test("matrix has k rows and |I|+|f| columns, flattened") {
    val feats = CommunityFeatures.buildForEgo(1L, fig7Assigns, Map.empty,
      _ => Array(0.0), k = 4, interDims = interDims, featDims = featDims)
    feats.foreach { cf =>
      assert(cf.rows == 4 && cf.cols == 3)
      assert(cf.flat.length == 12)
    }
  }

  test("rows are ordered by descending tightness with zero padding") {
    // community C1 = {2,3,4}: tightness 1, 1, 2/3 → row order 2, 3, 4
    val inter = Map((2L, 3L) -> Array(4.0, 0.0), (2L, 4L) -> Array(2.0, 0.0),
                    (3L, 4L) -> Array(2.0, 0.0))
    val userF = Map(2L -> Array(20.0), 3L -> Array(30.0), 4L -> Array(40.0))
    val feats = CommunityFeatures.buildForEgo(1L, fig7Assigns, inter,
      u => userF.getOrElse(u, Array(0.0)), k = 4, interDims = interDims, featDims = featDims)
    val c1 = feats.find(_.members.length == 3).get
    val m = c1.flat.grouped(c1.cols).toArray
    // Eq. 1: totals dim0 = 8; user sums: u2 = 6, u3 = 6, u4 = 4
    assert(math.abs(m(0)(0) - 6.0 / 8) < 1e-12) // u2 row first (tightness 1, id 2)
    assert(m(0)(2) == 20.0)
    assert(math.abs(m(1)(0) - 6.0 / 8) < 1e-12) // u3
    assert(m(1)(2) == 30.0)
    assert(math.abs(m(2)(0) - 4.0 / 8) < 1e-12) // u4 (tightness 2/3) last
    assert(m(2)(2) == 40.0)
    assert(m(3).forall(_ == 0.0)) // padding row
  }

  test("interactions involving members outside the community are ignored") {
    // (4,6) crosses C1/C2 — must not contribute to either community
    val inter = Map((4L, 6L) -> Array(100.0, 100.0))
    val feats = CommunityFeatures.buildForEgo(1L, fig7Assigns, inter,
      _ => Array(0.0), k = 4, interDims = interDims, featDims = featDims)
    feats.foreach(cf => assert(cf.flat.forall(_ == 0.0)))
  }

  test("top-k truncates larger communities keeping highest tightness") {
    val inter = Map.empty[(Long, Long), Array[Double]]
    val feats = CommunityFeatures.buildForEgo(1L, fig7Assigns, inter,
      u => Array(u.toDouble), k = 2, interDims = interDims, featDims = featDims)
    val c1 = feats.find(_.members.length == 3).get
    // members 2,3,4 with tightness 1,1,2/3 → rows for 2 and 3 only
    assert(c1.flat(0 * c1.cols + 2) == 2.0)
    assert(c1.flat(1 * c1.cols + 2) == 3.0)
  }

  test("members and tightness arrays stay aligned and id-sorted") {
    val feats = CommunityFeatures.buildForEgo(1L, fig7Assigns, Map.empty,
      _ => Array(0.0), k = 4, interDims = interDims, featDims = featDims)
    val c1 = feats.find(_.members.length == 3).get
    assert(c1.members.toSeq == Seq(2L, 3L, 4L))
    assert(c1.tightness.toSeq == Seq(1.0, 1.0, 2.0 / 3))
  }

  private def fig7Edges = Seq(
    (1L, 2L), (1L, 3L), (1L, 4L), (1L, 5L), (1L, 6L),
    (2L, 3L), (2L, 4L), (3L, 4L), (5L, 6L), (4L, 6L)).toDF("src", "dst")

  test("distributed compute matches buildForEgo for U1") {
    val interDf = Seq(
      (2L, 3L, Seq(4.0, 0.0)), (2L, 4L, Seq(2.0, 0.0)), (3L, 4L, Seq(2.0, 0.0)),
      (5L, 6L, Seq(1.0, 1.0))).toDF("src", "dst", "inter")
    val userF: Map[Long, Array[Double]] =
      (1L to 6L).map(u => u -> Array(u.toDouble)).toMap
    val assigns = LocalCommunities.detect(spark, fig7Edges)
    val inner = EgoNetworks.egoInnerEdges(spark, fig7Edges)
    val feats = CommunityFeatures.compute(spark, assigns, inner, interDf, userF,
      k = 4, interDims = interDims, featDims = featDims).collect()

    val localAssigns = LocalCommunities.detect(spark, fig7Edges).collect()
      .filter(_.ego == 1L).toSeq
    val expected = CommunityFeatures.buildForEgo(1L, localAssigns,
      Map((2L, 3L) -> Array(4.0, 0.0), (2L, 4L) -> Array(2.0, 0.0),
          (3L, 4L) -> Array(2.0, 0.0), (5L, 6L) -> Array(1.0, 1.0)),
      u => userF(u), k = 4, interDims = interDims, featDims = featDims)

    val got = feats.filter(_.ego == 1L).sortBy(_.members.min)
    val exp = expected.sortBy(_.members.min)
    assert(got.length == exp.length)
    got.zip(exp).foreach { case (g, e) =>
      assert(g.members.toSeq == e.members.toSeq)
      assert(g.flat.toSeq == e.flat.toSeq)
      assert(g.tightness.toSeq == e.tightness.toSeq)
    }
  }

  Seq(6, 8).foreach { width =>
    test(s"compute rejects interaction vectors of width $width when interDims is 7") {
      val interDf = Seq((2L, 3L, Seq.fill(width)(1.0))).toDF("src", "dst", "inter")
      val e = intercept[Exception] {
        LoCEC.divide(spark, fig7Edges, interDf, Map.empty[Long, Array[Double]], LoCEC.Params())
      }
      val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .collectFirst { case iae: IllegalArgumentException => iae }
      assert(cause.isDefined, e)
      val msg = cause.get.getMessage
      assert(msg.contains("pair (2, 3)") && msg.contains(s"width $width") &&
        msg.contains("interDims = 7"), msg)
    }
  }

  test("compute rejects an inner edge with two interaction rows and names it") {
    // which of two rows a cogroup delivers last depends on the shuffle
    val interDf = Seq((2L, 3L, Seq.fill(7)(1.0)), (4L, 6L, Seq.fill(7)(1.0)),
      (2L, 3L, Seq.fill(7)(2.0))).toDF("src", "dst", "inter")
    val e = intercept[Exception] {
      LoCEC.divide(spark, fig7Edges, interDf, Map.empty[Long, Array[Double]], LoCEC.Params())
    }
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
    assert(cause.isDefined, e)
    val msg = cause.get.getMessage
    assert(msg.contains("pair (2, 3) has more than one interaction row"), msg)
  }

  test("distributed compute emits every community of every ego") {
    val assigns = LocalCommunities.detect(spark, fig7Edges)
    val inner = EgoNetworks.egoInnerEdges(spark, fig7Edges)
    val feats = CommunityFeatures.compute(spark, assigns, inner,
      Seq.empty[(Long, Long, Seq[Double])].toDF("src", "dst", "inter"),
      Map.empty[Long, Array[Double]].withDefaultValue(Array(0.0)),
      k = 4, interDims = interDims, featDims = featDims).collect()
    val expectedCommCount = assigns.collect().map(a => (a.ego, a.comm)).distinct.length
    assert(feats.length == expectedCommCount)
  }

  test("labels picks the majority labeled ego-member edge type") {
    val assigns = LocalCommunities.detect(spark, fig7Edges)
    val inner = EgoNetworks.egoInnerEdges(spark, fig7Edges)
    val feats = CommunityFeatures.compute(spark, assigns, inner,
      Seq.empty[(Long, Long, Seq[Double])].toDF("src", "dst", "inter"),
      Map.empty[Long, Array[Double]].withDefaultValue(Array(0.0)),
      k = 4, interDims = interDims, featDims = featDims)
    // label U1's edges: to 2,3 colleague; to 4 family; to 5,6 schoolmate
    val labeled = Seq(
      (1L, 2L, RelationType.Colleague), (1L, 3L, RelationType.Colleague),
      (1L, 4L, RelationType.Family),
      (1L, 5L, RelationType.Schoolmate), (1L, 6L, RelationType.Schoolmate))
      .toDF("src", "dst", "label")
    val labels = CommunityFeatures.labels(spark, feats, labeled)
      .where($"ego" === 1L).as[(Long, Int, String)].collect()
    val byComm = labels.map(l => l._2 -> l._3).toMap
    // C1 = {2,3,4}: colleague 2 votes vs family 1 → colleague
    // C2 = {5,6}: schoolmate
    assert(byComm.values.toSet == Set(RelationType.Colleague, RelationType.Schoolmate))
  }

  test("labels breaks ties by principal-type priority") {
    val assigns = LocalCommunities.detect(spark, fig7Edges)
    val inner = EgoNetworks.egoInnerEdges(spark, fig7Edges)
    val feats = CommunityFeatures.compute(spark, assigns, inner,
      Seq.empty[(Long, Long, Seq[Double])].toDF("src", "dst", "inter"),
      Map.empty[Long, Array[Double]].withDefaultValue(Array(0.0)),
      k = 4, interDims = interDims, featDims = featDims)
    // C2 = {5,6} with one family and one colleague vote → family (priority)
    val labeled = Seq(
      (1L, 5L, RelationType.Colleague), (1L, 6L, RelationType.Family))
      .toDF("src", "dst", "label")
    val labels = CommunityFeatures.labels(spark, feats, labeled)
      .where($"ego" === 1L).as[(Long, Int, String)].collect()
    assert(labels.length == 1)
    assert(labels.head._3 == RelationType.Family)
  }

  test("communities with no labeled edges get no label row") {
    val assigns = LocalCommunities.detect(spark, fig7Edges)
    val inner = EgoNetworks.egoInnerEdges(spark, fig7Edges)
    val feats = CommunityFeatures.compute(spark, assigns, inner,
      Seq.empty[(Long, Long, Seq[Double])].toDF("src", "dst", "inter"),
      Map.empty[Long, Array[Double]].withDefaultValue(Array(0.0)),
      k = 4, interDims = interDims, featDims = featDims)
    val labels = CommunityFeatures.labels(spark, feats,
      Seq.empty[(Long, Long, String)].toDF("src", "dst", "label"))
    assert(labels.count() == 0)
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** The labeled sets the broadcast vote is compared on against the
    * join-chain oracle, on the 300-user setup's communities. */
  private lazy val voteCases = {
    val st = repro.exp.Experiments.setup(spark, numUsers = 300, seed = 7)
    val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, LoCEC.Params())
    val major = RelationType.Major
    val train = st.trainEdges.as[(Long, Long, String)].collect().toSeq
    // every edge labeled, so many communities tie on votes across classes
    val all = st.edges.select("src", "dst").as[(Long, Long)].collect().toSeq
      .map { case (s, d) => (s, d, major(((s + d) % 3).toInt)) }
    val rot = (l: String) => major((major.indexOf(l) + 1) % major.length)
    val cases = Seq(
      "trainEdges" -> train,
      "same label listed twice" -> (all ++ all.filter(_._1 % 4 == 0)),
      "conflicting labels for one pair" -> (all ++ all.filter(_._2 % 3 == 0).map(e => e.copy(_3 = rot(e._3)))),
      "pairs that are not edges" -> (train ++ train.flatMap { case (s, d, l) =>
        Seq((d, s, l), (s, d + 100000L, rot(l)), (s + 100000L, d + 100000L, l)) }),
      "every edge labeled" -> all,
      "empty" -> Seq.empty[(Long, Long, String)])
    (pre.commFeats, cases.map { case (name, rows) => name -> (rows, rows.toDF("src", "dst", "label")) })
  }

  test("labels and labeledSamples equal the join-chain oracle on every labeled set") {
    val (commFeats, cases) = voteCases
    cases.foreach { case (name, (_, labeled)) =>
      val got = CommunityFeatures.labels(spark, commFeats, labeled).as[(Long, Int, String)].collect()
      val exp = CommunityFeaturesOracle.labels(spark, commFeats, labeled).as[(Long, Int, String)].collect()
      assert(got.sorted.toSeq == exp.sorted.toSeq, name)
      assert(name != "empty" || got.isEmpty)
      Seq(1, 7, Int.MaxValue).foreach { limit =>
        val g = CommunityFeatures.labeledSamples(spark, commFeats, labeled, limit)
        val e = CommunityFeaturesOracle.labeledSamples(spark, commFeats, labeled, limit)
        assert(g.map { case (cf, l) => (cf.ego, cf.comm, l) } == e.map { case (cf, l) => (cf.ego, cf.comm, l) },
          (name, limit))
        g.zip(e).foreach { case ((x, _), (y, _)) =>
          assert(bits(x.flat) == bits(y.flat) && bits(x.tightness) == bits(y.tightness),
            (name, limit, x.ego, x.comm))
        }
        assert(g.length == math.min(limit, got.length), (name, limit))
      }
    }
  }

  test("the oracle cases include vote ties and repeats that change the winner") {
    val (commFeats, cases) = voteCases
    val byName = cases.toMap
    val comms = commFeats.collect().toSeq
    /** Votes per label of every community. */
    def tallies(name: String): Seq[Map[String, Int]] = {
      val byPair = byName(name)._1.groupMap(r => (r._1, r._2))(_._3)
      comms.map { cf =>
        cf.members.toSeq.flatMap(m => byPair.getOrElse((math.min(cf.ego, m), math.max(cf.ego, m)), Nil))
          .groupBy(identity).view.mapValues(_.size).toMap
      }
    }
    def tied(t: Map[String, Int]) = t.nonEmpty && t.values.count(_ == t.values.max) > 1
    def winner(t: Map[String, Int]) = t.minByOption { case (l, n) => (-n, RelationType.priority(l)) }.map(_._1)
    val once = tallies("every edge labeled")
    assert(once.count(tied) > 10)
    Seq("same label listed twice", "conflicting labels for one pair").foreach { name =>
      assert(once.zip(tallies(name)).exists { case (a, b) => winner(a) != winner(b) }, name)
    }
  }
}
