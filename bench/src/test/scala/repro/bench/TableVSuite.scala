package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.ml.Metrics

/** Table V — local community classification performance.
  *
  * Paper overall F1: LoCEC-XGB 0.882, LoCEC-CNN 0.927 (community F1 is
  * slightly above the corresponding edge F1, because detected communities
  * are purer objects than single edges).
  */
class TableVSuite extends SparkSpec {

  private val paperOverall = Map("LoCEC-XGB" -> 0.882, "LoCEC-CNN" -> 0.927)

  private lazy val results: Seq[(String, Seq[Metrics.Score])] =
    Experiments.tableV(spark, Bench.st, Bench.precomputed, Bench.sizes)

  private def overall(algo: String): Metrics.Score =
    results.find(_._1 == algo).get._2.last

  test("Table V: print community classification performance (paper vs ours)") {
    Bench.banner(s"TABLE V — community classification (${Bench.numUsers} users)")
    results.foreach { case (algo, scores) =>
      println(f"--- $algo (paper overall F1 = ${paperOverall(algo)}%.3f) ---")
      println(Experiments.formatScores(algo, scores))
    }
  }

  test("both community classifiers are strongly above chance") {
    assert(overall("LoCEC-XGB").f1 > 0.6, overall("LoCEC-XGB"))
    assert(overall("LoCEC-CNN").f1 > 0.6, overall("LoCEC-CNN"))
  }

  test("LoCEC-CNN is at least on par with LoCEC-XGB on communities") {
    assert(overall("LoCEC-CNN").f1 >= overall("LoCEC-XGB").f1 - 0.03,
      s"CNN ${overall("LoCEC-CNN").f1} vs XGB ${overall("LoCEC-XGB").f1}")
  }

  test("all three major types are scored by both classifiers") {
    results.foreach { case (algo, scores) =>
      assert(scores.dropRight(1).map(_.label).toSet ==
        repro.wechat.RelationType.Major.toSet, algo)
    }
  }
}
