package repro.core

import repro.SparkSpec
import repro.exp.Experiments
import repro.ml.{CommCNN, GBDT, LogisticRegression}

/** End-to-end LoCEC on a small generated network: the full three-phase
  * pipeline must run distributed, produce predictions for the requested
  * edges, and clearly beat chance on the planted ground truth. */
class LoCECIntegrationSpec extends SparkSpec {
  import spark.implicits._

  private lazy val st = Experiments.setup(spark, numUsers = 400, seed = 11)

  private val smallSizes = Experiments.ModelSizes(
    gbdt = GBDT.Params(numRounds = 15),
    cnn = CommCNN.Config(filters = 4, hidden = 16, epochs = 12, seed = 5),
    lr = LogisticRegression.Params(epochs = 200),
    maxTrainCommunities = 2000)

  private lazy val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures,
    LoCEC.Params())

  private lazy val resultXgb = LoCEC.label(spark, pre, st.trainEdges,
    st.testEdges.select("src", "dst"),
    LoCEC.Params(variant = LoCEC.Xgb, gbdt = smallSizes.gbdt, lr = smallSizes.lr,
      maxTrainCommunities = smallSizes.maxTrainCommunities))

  private lazy val resultCnn = LoCEC.label(spark, pre, st.trainEdges,
    st.testEdges.select("src", "dst"),
    LoCEC.Params(variant = LoCEC.Cnn, cnn = smallSizes.cnn, lr = smallSizes.lr,
      maxTrainCommunities = smallSizes.maxTrainCommunities))

  test("setup yields a nontrivial train/test split") {
    assert(st.trainEdges.count() > 100)
    assert(st.testEdges.count() > 20)
    assert(st.trainEdges.join(st.testEdges, Seq("src", "dst")).count() == 0)
  }

  test("phase I assigns every friend of every ego exactly once") {
    val n = resultXgb.assigns.count()
    assert(n == 2 * st.edges.count())
    assert(resultXgb.assigns.toDF().select("ego", "friend").distinct().count() == n)
  }

  test("phase II classifies every detected community") {
    assert(resultXgb.commPreds.count() == resultXgb.commFeats.count())
  }

  test("community prediction vectors are 3-class distributions") {
    resultXgb.commPreds.take(50).foreach { p =>
      assert(p.probs.length == 3)
      assert(math.abs(p.probs.sum - 1.0) < 1e-6)
    }
  }

  test("phase III labels every test edge") {
    assert(resultXgb.edgePreds.count() == st.testEdges.count())
  }

  test("LoCEC-XGB beats chance clearly on the planted network") {
    val scores = Experiments.evaluate(spark, resultXgb.edgePreds, st.testEdges)
    val overall = scores.last
    assert(overall.f1 > 0.55, s"overall F1 ${overall.f1}")
  }

  test("LoCEC-CNN beats chance clearly on the planted network") {
    val scores = Experiments.evaluate(spark, resultCnn.edgePreds, st.testEdges)
    val overall = scores.last
    assert(overall.f1 > 0.55, s"overall F1 ${overall.f1}")
  }

  test("timings are recorded for every phase") {
    val t = resultXgb.timings
    assert(t.phase1Sec > 0 && t.phase2Sec > 0 && t.phase3Sec > 0 && t.trainingSec > 0)
    assert(t.totalSec >= t.phase1Sec)
  }

  test("XGB and CNN results labelled from one divide share its assigns") {
    assert(resultXgb.assigns eq pre.assigns)
    assert(resultCnn.assigns eq resultXgb.assigns)
    assert(resultCnn.commFeats eq resultXgb.commFeats)
  }

  test("predicted labels come from the major-type label set") {
    val preds = resultXgb.edgePreds.select("pred").distinct()
      .as[String].collect().toSet
    assert(preds.subsetOf(repro.wechat.RelationType.Major.toSet))
  }
}
