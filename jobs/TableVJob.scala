package repro.jobs

import repro.core.LoCEC
import repro.exp.Experiments

/** Reproduces Table V: local community classification performance of
  * LoCEC-XGB and LoCEC-CNN. */
object TableVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("locec-table5")
    val st = Experiments.setup(spark, JobSession.benchUsers)
    val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, LoCEC.Params())
    Experiments.tableV(spark, st, pre).foreach { case (algo, scores) =>
      println(Experiments.formatScores(algo, scores))
    }
    spark.stop()
  }
}
