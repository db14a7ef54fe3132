package repro.bench

import repro.SparkSpec
import repro.core.LoCEC
import repro.exp.Experiments

/** Shared bench-scale context: one generated network + one set of Phase
  * I/II outputs reused by the table suites (they are variant-independent).
  * All bench suites run in a single forked JVM, so the lazy vals are
  * computed once. Size via BENCH_USERS (default 5000 users — roughly an
  * order of magnitude below the paper's 42k-node evaluation sub-graph, two
  * orders below its full-network deployment). */
object Bench {
  lazy val spark = SparkSpec.shared
  lazy val numUsers: Int = sys.env.getOrElse("BENCH_USERS", "5000").toInt
  lazy val st: Experiments.Setup = Experiments.setup(spark, numUsers)
  lazy val sizes: Experiments.ModelSizes = Experiments.ModelSizes()

  /** Phase I + Phase II feature outputs shared by Tables IV and V. */
  lazy val precomputed: LoCEC.Precomputed =
    LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, LoCEC.Params())

  def banner(title: String): Unit = {
    println("=" * 78)
    println(title)
    println("=" * 78)
  }
}
