package repro.jobs

import repro.core.LoCEC
import repro.exp.Experiments

/** Reproduces Table IV: relationship (edge) classification performance of
  * ProbWP, Economix, XGBoost, LoCEC-XGB and LoCEC-CNN. */
object TableIVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("locec-table4")
    val st = Experiments.setup(spark, JobSession.benchUsers)
    val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, LoCEC.Params())
    Experiments.tableIV(spark, st, pre).foreach { case (algo, scores) =>
      println(Experiments.formatScores(algo, scores))
    }
    spark.stop()
  }
}
