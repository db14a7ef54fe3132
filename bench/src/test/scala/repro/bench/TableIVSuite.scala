package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.ml.Metrics

/** Table IV — relationship (edge) classification performance.
  *
  * Paper overall F1: ProbWP 0.793, Economix 0.754, XGBoost 0.674,
  * LoCEC-XGB 0.850, LoCEC-CNN 0.916. The expected *shape*: both LoCEC
  * variants beat every baseline (community aggregation defeats sparsity),
  * the raw-feature XGBoost is the weakest, and LoCEC-CNN is the best.
  */
class TableIVSuite extends SparkSpec {

  private val paperOverall = Map(
    "ProbWP" -> 0.793, "Economix" -> 0.754, "XGBoost" -> 0.674,
    "LoCEC-XGB" -> 0.850, "LoCEC-CNN" -> 0.916)

  private lazy val results: Seq[(String, Seq[Metrics.Score])] =
    Experiments.tableIV(spark, Bench.st, Bench.precomputed, Bench.sizes)

  private def overall(algo: String): Metrics.Score =
    results.find(_._1 == algo).get._2.last

  test("Table IV: print edge classification performance (paper vs ours)") {
    Bench.banner(s"TABLE IV — relationship classification (${Bench.numUsers} users, " +
      s"${Bench.st.trainEdges.count()} train / ${Bench.st.testEdges.count()} test edges)")
    println("| Algorithm | Type | P | R | F1 |   (paper overall F1 in header)")
    results.foreach { case (algo, scores) =>
      println(f"--- $algo (paper overall F1 = ${paperOverall(algo)}%.3f) ---")
      println(Experiments.formatScores(algo, scores))
    }
  }

  test("both LoCEC variants beat every baseline (the paper's headline)") {
    val baselineBest = Seq("ProbWP", "Economix", "XGBoost").map(a => overall(a).f1).max
    assert(overall("LoCEC-XGB").f1 > baselineBest,
      s"LoCEC-XGB ${overall("LoCEC-XGB").f1} vs best baseline $baselineBest")
    assert(overall("LoCEC-CNN").f1 > baselineBest,
      s"LoCEC-CNN ${overall("LoCEC-CNN").f1} vs best baseline $baselineBest")
  }

  test("raw-feature XGBoost suffers the sparsity problem (weakest recall)") {
    val xgbRecall = overall("XGBoost").recall
    assert(xgbRecall < overall("LoCEC-XGB").recall)
    assert(xgbRecall < overall("LoCEC-CNN").recall)
  }

  test("LoCEC-CNN reaches a strong absolute F1") {
    assert(overall("LoCEC-CNN").f1 > 0.7, s"LoCEC-CNN overall ${overall("LoCEC-CNN")}")
  }

  test("LoCEC-CNN is at least on par with LoCEC-XGB") {
    assert(overall("LoCEC-CNN").f1 >= overall("LoCEC-XGB").f1 - 0.03,
      s"CNN ${overall("LoCEC-CNN").f1} vs XGB ${overall("LoCEC-XGB").f1}")
  }

  test("ProbWP is effective at this label density, as the paper observes") {
    assert(overall("ProbWP").f1 > 0.4, s"ProbWP overall ${overall("ProbWP")}")
  }

  test("every algorithm scores all three major types") {
    results.foreach { case (algo, scores) =>
      assert(scores.dropRight(1).map(_.label).toSet ==
        repro.wechat.RelationType.Major.toSet, algo)
    }
  }
}
