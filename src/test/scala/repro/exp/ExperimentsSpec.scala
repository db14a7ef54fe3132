package repro.exp

import repro.SparkSpec
import repro.core.LoCEC
import repro.ml.{CommCNN, GBDT, LogisticRegression}
import repro.wechat.RelationType

class ExperimentsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val st = Experiments.setup(spark, numUsers = 500, seed = 3)

  test("setup splits labeled major edges roughly 80/20") {
    val tr = st.trainEdges.count().toDouble
    val te = st.testEdges.count().toDouble
    val frac = tr / (tr + te)
    assert(frac > 0.72 && frac < 0.88, s"train fraction $frac")
  }

  test("train and test sets are disjoint and major-typed") {
    assert(st.trainEdges.join(st.testEdges, Seq("src", "dst")).count() == 0)
    val labels = st.trainEdges.union(st.testEdges).select("label").distinct()
      .as[String].collect().toSet
    assert(labels.subsetOf(RelationType.Major.toSet))
  }

  test("split is deterministic in the seed") {
    val st2 = Experiments.setup(spark, numUsers = 500, seed = 3)
    assert(st2.trainEdges.collect().toSet == st.trainEdges.collect().toSet)
  }

  test("evaluate scores a perfect predictor at 1.0") {
    val preds = st.testEdges.select($"src", $"dst", $"label" as "pred")
    val scores = Experiments.evaluate(spark, preds, st.testEdges)
    assert(scores.last.f1 == 1.0)
  }

  test("evaluate treats missing predictions as unknown (recall loss)") {
    val preds = st.testEdges.limit(0).select($"src", $"dst", $"label" as "pred")
    val scores = Experiments.evaluate(spark, preds, st.testEdges)
    assert(scores.last.recall == 0.0)
  }

  test("tableI ratios are consistent") {
    val rows = Experiments.tableI(spark, numUsers = 500, seed = 3)
    // global second-category ratios partition the labeled edges
    assert(math.abs(rows.map(_.secondRatio).sum - 1.0) < 1e-9)
    // first-category ratios partition them too (each first appears once)
    val firsts = rows.map(r => r.first -> r.firstRatio).toMap
    assert(math.abs(firsts.values.sum - 1.0) < 1e-9)
    firsts.values.foreach(v => assert(v > 0 && v < 1))
    // second ratios of a first category sum to that category's first ratio
    rows.groupBy(_.first).foreach { case (f, rs) =>
      assert(math.abs(rs.map(_.secondRatio).sum - firsts(f)) < 1e-9)
    }
  }

  test("tableI covers all four first categories") {
    val rows = Experiments.tableI(spark, numUsers = 500, seed = 3)
    assert(rows.map(_.first).toSet == RelationType.All.toSet)
  }

  test("tableII reports high precision and low recall for covered types") {
    val scores = Experiments.tableII(spark, st)
    val overall = scores.last
    assert(overall.recall < 0.2, s"recall ${overall.recall}")
    // precision over predicted edges should be well above chance whenever
    // any prediction was made
    val perClass = scores.dropRight(1)
    assert(perClass.exists(_.precision > 0.5) || perClass.forall(_.precision == 0.0))
  }

  test("tableIV and tableVI leave the cache as they found it") {
    val small = Experiments.ModelSizes(gbdt = GBDT.Params(numRounds = 5),
      cnn = CommCNN.Config(filters = 2, hidden = 8, epochs = 2),
      lr = LogisticRegression.Params(epochs = 100), maxTrainCommunities = 2000)
    val s = Experiments.setup(spark, numUsers = 300, seed = 11)
    Seq(s.edges, s.interactions, s.trainEdges, s.testEdges).foreach(_.count())
    // the CacheManager's entry count (public in bytecode, private[sql] in
    // Scala) and the persisted RDDs behind the materialized entries
    val cm = spark.sharedState.cacheManager
    def entries = (cm.getClass.getMethod("numCachedEntries").invoke(cm),
                   spark.sparkContext.getPersistentRDDs.keySet.toSet)

    val pre = LoCEC.divide(spark, s.edges, s.interactions, s.userFeatures, LoCEC.Params())
    val withPre = entries
    val scores = Experiments.tableIV(spark, s, pre, small)
    assert(scores.map(_._1).contains("LoCEC-CNN"))
    assert(entries == withPre)
    // released first: a cached divide of the same inputs would stand in
    // for tableVI's own Phase I/II
    Seq(pre.assigns, pre.commFeats).foreach(_.unpersist(blocking = true))

    val without = entries
    assert(Experiments.tableVI(spark, s, small).totalSec > 0)
    assert(entries == without)
  }

  /** The hash Table V split on before `inTrainSplit`; Scala 2.13.17
    * deprecates it. */
  @annotation.nowarn("cat=deprecation")
  private def productHash(ego: Long, comm: Int, seed: Long): Int =
    scala.util.hashing.MurmurHash3.productHash((ego, comm, seed))

  test("Table V's split hash equals MurmurHash3.productHash on every community") {
    // so the 80/20 split, and Table V's F1, stay where they were
    val s = Experiments.setup(spark, numUsers = 300, seed = 11)
    val pre = LoCEC.divide(spark, s.edges, s.interactions, s.userFeatures, LoCEC.Params())
    val comms = pre.commFeats.collect()
    Seq(pre.assigns, pre.commFeats).foreach(_.unpersist(blocking = true))
    assert(comms.length > 100)
    Seq(42L, 0L, -1L, Long.MaxValue).foreach { seed =>
      comms.foreach { cf =>
        val old = productHash(cf.ego, cf.comm, seed)
        assert((cf.ego, cf.comm, seed).## == old, (cf.ego, cf.comm, seed))
        assert(Experiments.inTrainSplit(cf, seed) == (math.floorMod(old, 10) < 8), (cf.ego, cf.comm, seed))
      }
    }
  }

  test("formatScores renders one row per score") {
    val scores = Experiments.evaluate(spark,
      st.testEdges.select($"src", $"dst", $"label" as "pred"), st.testEdges)
    val rendered = Experiments.formatScores("X", scores)
    assert(rendered.linesIterator.size == scores.size)
  }
}
